//! `netart` — automatic schematic diagram generation from netlists.
//!
//! A Rust reproduction of **Koster & Stok, "From Network to Artwork:
//! Automatic Schematic Diagram Generation"** (EUT Report 89-E-219,
//! Eindhoven University of Technology, 1989): given a plain netlist,
//! produce a readable schematic diagram — module placement plus
//! rectilinear wire routing — following the hand-drawing guidelines the
//! paper distils (functional clustering, left-to-right signal flow,
//! inputs left / outputs right, few bends and crossovers).
//!
//! The pipeline mirrors the paper's two programs:
//!
//! * **PABLO** (placement, §4): seeded partitioning into functional
//!   parts, longest-path strings of driver→consumer modules, module
//!   rotation for bend-minimal connections, centre-of-gravity box and
//!   partition packing, system terminals on the bounding ring.
//! * **EUREKA** (routing, §5): a line-expansion router that guarantees
//!   a connection whenever one exists, minimises bends first, then
//!   crossovers, then length, with claimpoints (§5.7) protecting
//!   terminal exits.
//!
//! [`Generator`] glues the two together; the individual phases live in
//! [`netart_place`](../netart_place/index.html) and
//! [`netart_route`](../netart_route/index.html), the data model in
//! [`netart_netlist`](../netart_netlist/index.html) and
//! [`netart_diagram`](../netart_diagram/index.html) (all re-exported
//! here under [`place`], [`route`], [`netlist`], [`diagram`],
//! [`geom`]).
//!
//! # Quickstart
//!
//! ```
//! use netart::{Generator, netlist::{Library, NetworkBuilder, Template, TermType}};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-gate network...
//! let mut lib = Library::new();
//! let inv = lib.add_template(Template::new("inv", (4, 2))?
//!     .with_terminal("a", (0, 1), TermType::In)?
//!     .with_terminal("y", (4, 1), TermType::Out)?)?;
//! let mut b = NetworkBuilder::new(lib);
//! let u0 = b.add_instance("u0", inv)?;
//! let u1 = b.add_instance("u1", inv)?;
//! b.connect_pin("n", u0, "y")?;
//! b.connect_pin("n", u1, "a")?;
//! let network = b.finish()?;
//!
//! // ...becomes artwork.
//! let outcome = Generator::new().generate(network);
//! assert!(outcome.report.failed.is_empty());
//! assert!(outcome.diagram.check().is_ok());
//! let svg = netart::diagram::svg::render(&outcome.diagram);
//! assert!(svg.starts_with("<svg"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use netart_diagram::{Diagram, Placement};
use netart_geom::{Point, Rotation};
use netart_netlist::{NetId, Network};
use netart_obs::{
    panic_message, DegradationReport, MetricsSnapshot, NetReport, NetworkReport, QualityReport,
    RunReport,
};
use netart_place::{Pablo, PlaceConfig};
use netart_route::{Eureka, RouteConfig, RouteReport, SalvageStep};
use tracing::{error, info, span, warn, Level};

/// Re-export of the geometry substrate.
pub use netart_geom as geom;

/// Re-export of the network model and file formats.
pub use netart_netlist as netlist;

/// Re-export of the diagram model, metrics and writers.
pub use netart_diagram as diagram;

/// Re-export of the placement phase.
pub use netart_place as place;

/// Re-export of the routing phase.
pub use netart_route as route;

/// Re-export of the observability layer (metrics, run reports,
/// tracing subscribers).
pub use netart_obs as obs;

pub use netart_diagram::{DiagramMetrics, NetPath};
pub use netart_place::PlaceConfig as Placing;
pub use netart_route::RouteConfig as Routing;

/// A hard failure of the pipeline: the run could not produce a usable
/// diagram at all. Soft failures are reported on a successful
/// [`Outcome`] instead: a phase that recovered as a [`Degradation`], a
/// net salvaged or lost in its [`route::NetRouteStats`] record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The placement handed to [`Generator::route_only`] leaves modules
    /// or system terminals unplaced, so routing cannot start.
    IncompletePlacement,
    /// The routing phase panicked (a bug, not a property of the input);
    /// the payload is the panic message.
    RoutingPanicked(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::IncompletePlacement => {
                write!(f, "placement is incomplete: every module and system terminal must be placed before routing")
            }
            PipelineError::RoutingPanicked(msg) => {
                write!(f, "routing phase panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A phase of the pipeline that recovered from a panic: the run
/// finished, but its diagram is degraded relative to a clean run. How
/// each net ended is the router's record, not a degradation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The placer panicked; a plain fallback grid placement was used
    /// instead. The payload is the panic message.
    PlacementRecovered(String),
    /// The router panicked; the diagram keeps its placement but has no
    /// routes. The payload is the panic message.
    RoutingAborted(String),
}

/// Everything a generator run produces: the finished diagram, the
/// routing report, the phase timings (the quantities of the paper's
/// table 6.1), and any phase [`Degradation`]s the run had to accept.
/// The run's metrics and its degradations are derived from these in
/// [`Outcome::run_report`].
#[derive(Debug)]
pub struct Outcome {
    /// The generated schematic diagram.
    pub diagram: Diagram,
    /// Which nets routed and which failed.
    pub report: RouteReport,
    /// Wall-clock time of the placement phase.
    pub place_time: Duration,
    /// Wall-clock time of the routing phase.
    pub route_time: Duration,
    /// The phases that recovered from a panic, in the order they ran.
    pub degradations: Vec<Degradation>,
}

impl Outcome {
    /// `true` when the run needed no fallbacks at all: every net routed
    /// by the regular passes and no phase misbehaved.
    pub fn is_clean(&self) -> bool {
        self.degradation_count() == 0
    }

    /// How many entries the run report's degradations list holds.
    fn degradation_count(&self) -> usize {
        self.degradations.len() + net_verdicts(&self.report).count()
    }

    /// Freezes the run into its machine-readable [`RunReport`]:
    /// network size, `place`/`route` phase timings, per-net router
    /// effort, the run's degradations (each phase recovery, then each
    /// salvaged net in salvage order, then each net left failed without
    /// salvage in net-id order), §4.4 quality metrics and the
    /// run's [`MetricsSnapshot`], all derived here with one
    /// [`Diagram::metrics`] call. Callers (the CLIs, the bench harness)
    /// may add their own phases around the pipeline's with
    /// [`RunReport::push_phase_front`] / [`RunReport::push_phase`].
    pub fn run_report(&self, tool: &str) -> RunReport {
        self.run_report_with(tool, &self.diagram.metrics())
    }

    /// [`Outcome::run_report`] from the diagram's metrics `q`, for a
    /// caller that needs them too and has measured them already.
    pub fn run_report_with(&self, tool: &str, q: &DiagramMetrics) -> RunReport {
        let network = self.diagram.network();
        let degradations = self.degradation_reports();
        let mut report = RunReport {
            tool: tool.to_owned(),
            network: NetworkReport {
                modules: network.modules().count(),
                nets: network.nets().count(),
                system_terminals: network.system_terms().count(),
            },
            quality: QualityReport {
                routed_nets: q.routed_nets,
                unrouted_nets: q.unrouted_nets,
                total_length: q.total_length,
                total_bends: q.total_bends,
                crossovers: q.crossovers,
                branch_points: q.branch_points,
                bounding_area: q.bounding_area,
                completion: q.completion(),
            },
            metrics: self.metrics(q),
            is_clean: self.is_clean(),
            degradations,
            ..RunReport::default()
        };
        if self.place_time > Duration::ZERO {
            report.push_phase("place", duration_ns(self.place_time));
        }
        report.push_phase("route", duration_ns(self.route_time));
        for s in &self.report.net_stats {
            report.nets.push(NetReport {
                net: network.net(s.net).name().to_owned(),
                routed: s.routed,
                prerouted: s.prerouted,
                nodes_expanded: s.nodes_expanded,
                over_budget: s.over_budget,
                retried: s.retried,
                salvage: s.salvage.map(|step| step.as_str().to_owned()),
                ripup_victims: s.ripup_victims,
            });
        }
        report.attach_phase_quantiles();
        report
    }

    /// The run's metrics, derived from the outcome and its quality
    /// metrics `q`. Counters get only deterministic quantities; the
    /// wall-clock phase times go into histograms.
    fn metrics(&self, q: &DiagramMetrics) -> MetricsSnapshot {
        let report = &self.report;
        let nets = || report.net_stats.iter();
        let salvaged = |step| nets().filter(|s| s.salvage == Some(step)).count() as u64;
        let degraded = |is: fn(&Degradation) -> bool| {
            self.degradations.iter().filter(|d| is(d)).count() as u64
        };
        let counters = [
            ("route.nets_routed", report.routed.len() as u64),
            ("route.nets_failed", report.failed.len() as u64),
            ("route.nets_salvaged", report.salvaged.len() as u64),
            ("route.nodes_expanded", nets().map(|s| s.nodes_expanded).sum()),
            ("route.over_budget_nets", nets().filter(|s| s.over_budget).count() as u64),
            ("route.retried_nets", nets().filter(|s| s.retried).count() as u64),
            ("route.prerouted_nets", nets().filter(|s| s.prerouted).count() as u64),
            ("route.ripup_victims", nets().map(|s| u64::from(s.ripup_victims)).sum()),
            ("route.ghost_wires", salvaged(SalvageStep::GhostWire)),
            ("route.lee_fallbacks", salvaged(SalvageStep::LeeFallback)),
            ("degradations", self.degradation_count() as u64),
            ("place.fallback", degraded(|d| matches!(d, Degradation::PlacementRecovered(_)))),
            ("route.aborted", degraded(|d| matches!(d, Degradation::RoutingAborted(_)))),
            ("quality.routed_nets", q.routed_nets as u64),
            ("quality.unrouted_nets", q.unrouted_nets as u64),
            ("quality.total_length", q.total_length),
            ("quality.total_bends", q.total_bends),
            ("quality.crossovers", q.crossovers),
            ("quality.branch_points", q.branch_points),
            ("quality.bounding_area", q.bounding_area),
        ];
        let mut metrics = MetricsSnapshot {
            counters: counters.into_iter().map(|(name, v)| (name.to_owned(), v)).collect(),
            ..MetricsSnapshot::default()
        };
        let place_ns = (self.place_time > Duration::ZERO).then(|| duration_ns(self.place_time));
        metrics.observe("phase.place_ns", place_ns);
        metrics.observe("phase.route_ns", [duration_ns(self.route_time)]);
        metrics.observe("route.net_nodes", nets().map(|s| s.nodes_expanded));
        metrics
    }

    /// The run's degradations with the context the report schema
    /// wants: each phase recovery with its panic message, then each
    /// salvaged net and each net left failed without salvage, with the
    /// budget state and search effort of its record. A routing panic
    /// leaves no records, so its nets report null effort.
    fn degradation_reports(&self) -> Vec<DegradationReport> {
        let report = &self.report;
        let phase = |kind: &str, msg: &String| DegradationReport {
            kind: kind.into(),
            net: None,
            stage: None,
            routed: None,
            over_budget: None,
            nodes_expanded: None,
            detail: Some(msg.clone()),
        };
        let net = |kind: &str, n: NetId| {
            let stats = report.net_stats.get(n.index());
            DegradationReport {
                kind: kind.into(),
                net: Some(self.diagram.network().net(n).name().to_owned()),
                stage: stats.and_then(|s| s.salvage).map(|step| step.as_str().to_owned()),
                routed: Some(stats.is_some_and(|s| s.routed)),
                over_budget: stats.map(|s| s.over_budget),
                nodes_expanded: stats.map(|s| s.nodes_expanded),
                detail: None,
            }
        };
        let phases = self.degradations.iter().map(|d| match d {
            Degradation::PlacementRecovered(msg) => phase("placement_recovered", msg),
            Degradation::RoutingAborted(msg) => phase("routing_aborted", msg),
        });
        phases.chain(net_verdicts(report).map(|(kind, n)| net(kind, n))).collect()
    }
}

/// Nanoseconds of a duration, saturating at `u64::MAX`.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The run report's degradation kind of each net that did not route
/// cleanly: each salvaged net in salvage order, then each net left
/// failed without salvage.
fn net_verdicts(report: &RouteReport) -> impl Iterator<Item = (&'static str, NetId)> + '_ {
    let salvaged = report.salvaged.iter().map(|&n| ("net_salvaged", n));
    salvaged.chain(unsalvaged(report).map(|n| ("net_unrouted", n)))
}

/// The nets a routing report leaves failed without salvage, in net-id
/// order: neither a route nor a ghost wire.
fn unsalvaged(report: &RouteReport) -> impl Iterator<Item = NetId> + '_ {
    report.failed.iter().copied().filter(|n| !report.salvaged.contains(n))
}

/// Logs each net a routing report leaves failed without salvage.
fn warn_unrouted(network: &Network, report: &RouteReport) {
    for n in unsalvaged(report) {
        let stats = report.net_stats.get(n.index());
        warn!(
            "net unrouted",
            net = network.net(n).name(),
            over_budget = stats.is_some_and(|s| s.over_budget),
            nodes = stats.map_or(0, |s| s.nodes_expanded),
        );
    }
}

/// The placement of last resort: every unplaced module on a plain grid
/// (row-major, square-ish), every unplaced system terminal along the
/// left edge. Ugly but complete, so routing can still run.
fn fallback_grid_placement(network: &Network, mut placement: Placement) -> Placement {
    let unplaced: Vec<_> = network
        .modules()
        .filter(|&m| placement.module(m).is_none())
        .collect();
    if !unplaced.is_empty() {
        let cols = (unplaced.len() as f64).sqrt().ceil() as usize;
        let cell_w = unplaced
            .iter()
            .map(|&m| network.template_of(m).size().0)
            .max()
            .unwrap_or(4)
            + 6;
        let cell_h = unplaced
            .iter()
            .map(|&m| network.template_of(m).size().1)
            .max()
            .unwrap_or(2)
            + 6;
        // Clear of anything already placed.
        let origin = placement
            .bounding_box(network)
            .map_or(Point::ORIGIN, |bb| {
                Point::new(bb.lower_left().x, bb.upper_right().y + cell_h)
            });
        for (i, &m) in unplaced.iter().enumerate() {
            let (col, row) = (i % cols, i / cols);
            let p = origin
                + Point::new(col as i32 * cell_w, row as i32 * cell_h);
            placement.place_module(m, p, Rotation::R0);
        }
    }
    let edge = placement
        .bounding_box(network)
        .map_or(Point::ORIGIN, |bb| bb.lower_left() + Point::new(-4, 0));
    let mut y = edge.y;
    for st in network.system_terms() {
        if placement.system_term(st).is_none() {
            placement.place_system_term(st, Point::new(edge.x, y));
            y += 4;
        }
    }
    placement
}

/// The automatic schematic diagram generator of figure 3.2: placement
/// followed by routing, each configurable through the options of
/// Appendices E and F.
///
/// # Examples
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone, Default)]
pub struct Generator {
    place: PlaceConfig,
    route: RouteConfig,
}

impl Generator {
    /// A generator with default options (`-p 1 -b 1`, claimpoints on).
    pub fn new() -> Self {
        Generator::default()
    }

    /// A generator with the string-forming placement of figure 6.4
    /// (`-p 7 -b 5`) — the preset that produces the most readable
    /// diagrams on typical networks.
    pub fn strings() -> Self {
        Generator::new().with_placing(PlaceConfig::strings())
    }

    /// Replaces the placement options.
    pub fn with_placing(mut self, config: PlaceConfig) -> Self {
        self.place = config;
        self
    }

    /// Replaces the routing options.
    pub fn with_routing(mut self, config: RouteConfig) -> Self {
        self.route = config;
        self
    }

    /// The placement options.
    pub fn placing(&self) -> &PlaceConfig {
        &self.place
    }

    /// The routing options.
    pub fn routing(&self) -> &RouteConfig {
        &self.route
    }

    /// Runs the full pipeline on a network.
    pub fn generate(&self, network: Network) -> Outcome {
        let empty = Placement::new(&network);
        self.generate_with_preplaced(network, empty)
    }

    /// Runs the pipeline around a preplaced (and possibly prerouted)
    /// part: the `-g` mechanism of Appendix E. Preplaced modules and
    /// terminals keep their positions; everything else is placed around
    /// them, then all nets are routed.
    ///
    /// Each phase runs isolated: a panic inside the placer falls back
    /// to a plain grid placement, a panic inside the router leaves the
    /// diagram placed but unrouted. Either is recorded as a
    /// [`Degradation`] on the returned [`Outcome`] rather than
    /// propagated.
    pub fn generate_with_preplaced(&self, network: Network, preplaced: Placement) -> Outcome {
        let mut degradations = Vec::new();

        let t0 = Instant::now();
        let placement = {
            let s = span!(
                Level::INFO,
                "netart.place",
                modules = network.modules().count() as u64,
            );
            let _g = s.enter();
            match panic::catch_unwind(AssertUnwindSafe(|| {
                Pablo::new(self.place.clone()).place_with_preplaced(&network, preplaced.clone())
            })) {
                Ok(p) => p,
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    error!("placement panicked, using fallback grid", detail = msg.as_str());
                    degradations.push(Degradation::PlacementRecovered(msg));
                    fallback_grid_placement(&network, preplaced)
                }
            }
        };
        let place_time = t0.elapsed();

        let mut diagram = Diagram::new(network, placement);
        let t1 = Instant::now();
        let report = {
            let s = span!(
                Level::INFO,
                "netart.route",
                nets = diagram.network().nets().count() as u64,
            );
            let _g = s.enter();
            match panic::catch_unwind(AssertUnwindSafe(|| {
                let mut scratch = diagram.clone();
                let report = Eureka::new(self.route.clone()).route(&mut scratch);
                (scratch, report)
            })) {
                Ok((routed, report)) => {
                    diagram = routed;
                    report
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    error!("routing panicked, diagram left unrouted", detail = msg.as_str());
                    degradations.push(Degradation::RoutingAborted(msg));
                    RouteReport {
                        failed: diagram.network().nets().collect(),
                        ..RouteReport::default()
                    }
                }
            }
        };
        let route_time = t1.elapsed();
        warn_unrouted(diagram.network(), &report);
        let outcome = Outcome {
            diagram,
            report,
            place_time,
            route_time,
            degradations,
        };
        info!(
            "pipeline finished",
            routed = outcome.report.routed.len() as u64,
            failed = outcome.report.failed.len() as u64,
            degradations = outcome.degradation_count() as u64,
        );
        outcome
    }

    /// Routes an existing placement without running the placer: the
    /// paper's `eureka`-only flow used for figure 6.6 (hand placement)
    /// and figure 6.5 (edited placement).
    ///
    /// # Errors
    ///
    /// [`PipelineError::IncompletePlacement`] when modules or system
    /// terminals are missing positions, and
    /// [`PipelineError::RoutingPanicked`] if the router hits a bug —
    /// this entry point surfaces hard failures instead of degrading,
    /// because a hand placement is worth fixing, not papering over.
    pub fn route_only(
        &self,
        network: Network,
        placement: Placement,
    ) -> Result<Outcome, PipelineError> {
        let diagram = Diagram::new(network, placement);
        self.route_diagram(diagram)
    }

    /// Routes an existing diagram — placement and any preroutes kept —
    /// without running the placer. [`Generator::route_only`] is this
    /// with a freshly built diagram; tools that parsed a diagram file
    /// (placement plus partial routes) call this directly so prerouted
    /// nets survive.
    ///
    /// # Errors
    ///
    /// Same contract as [`Generator::route_only`].
    pub fn route_diagram(&self, mut diagram: Diagram) -> Result<Outcome, PipelineError> {
        if !diagram.placement().is_complete() {
            return Err(PipelineError::IncompletePlacement);
        }
        let t1 = Instant::now();
        let report = {
            let s = span!(
                Level::INFO,
                "netart.route",
                nets = diagram.network().nets().count() as u64,
            );
            let _g = s.enter();
            panic::catch_unwind(AssertUnwindSafe(|| {
                Eureka::new(self.route.clone()).route(&mut diagram)
            }))
            .map_err(|payload| PipelineError::RoutingPanicked(panic_message(payload.as_ref())))?
        };
        let route_time = t1.elapsed();
        warn_unrouted(diagram.network(), &report);
        Ok(Outcome {
            diagram,
            report,
            place_time: Duration::ZERO,
            route_time,
            degradations: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network() -> Network {
        netart_workloads::string_chain(4)
    }

    #[test]
    fn generate_produces_clean_diagram() {
        let outcome = Generator::strings().generate(network());
        assert!(outcome.report.failed.is_empty(), "{:?}", outcome.report);
        let check = outcome.diagram.check();
        assert!(check.is_ok(), "{check}");
        let m = outcome.diagram.metrics();
        assert_eq!(m.unrouted_nets, 0);
        assert!(m.total_length > 0);
    }

    #[test]
    fn default_and_strings_configs_differ() {
        let a = Generator::new();
        let b = Generator::strings();
        assert_ne!(a.placing(), b.placing());
        assert_eq!(a.routing(), b.routing());
    }

    #[test]
    fn route_only_respects_placement() {
        let net = network();
        let placement = netart_place::Pablo::new(PlaceConfig::strings()).place(&net);
        let snapshot: Vec<_> = net.modules().map(|m| placement.module(m)).collect();
        let outcome = Generator::new().route_only(net, placement).unwrap();
        assert_eq!(outcome.place_time, Duration::ZERO);
        for (m, before) in outcome.diagram.network().modules().zip(snapshot) {
            assert_eq!(outcome.diagram.placement().module(m), before);
        }
    }

    #[test]
    fn route_only_rejects_incomplete_placement() {
        let net = network();
        let empty = Placement::new(&net);
        let err = Generator::new().route_only(net, empty).unwrap_err();
        assert_eq!(err, PipelineError::IncompletePlacement);
        assert!(err.to_string().contains("incomplete"));
    }

    #[test]
    fn clean_run_has_no_degradations() {
        let outcome = Generator::strings().generate(network());
        assert!(outcome.is_clean(), "{:?}", outcome.degradations);
    }

    #[test]
    fn fallback_grid_placement_is_complete() {
        let net = netart_workloads::controller_cluster();
        let placement = fallback_grid_placement(&net, Placement::new(&net));
        assert!(placement.is_complete());
        // And routable enough to produce a diagram without panicking.
        let mut diagram = Diagram::new(net, placement);
        let _ = Eureka::new(RouteConfig::default()).route(&mut diagram);
    }

    #[test]
    fn salvaged_nets_surface_as_degradations() {
        let net = network();
        assert!(net.nets().count() >= 3, "test needs three nets");
        let [n0, n1, n2] = [0, 1, 2].map(NetId::from_index);
        let stats = |net, routed, salvage| netart_route::NetRouteStats {
            net,
            routed,
            prerouted: false,
            nodes_expanded: 12,
            over_budget: true,
            retried: true,
            salvage,
            ripup_victims: 0,
            search_bbox: None,
        };
        let outcome = Outcome {
            diagram: Diagram::new(net.clone(), Placement::new(&net)),
            report: RouteReport {
                routed: vec![n0],
                failed: vec![n1, n2],
                salvaged: vec![n1],
                net_stats: vec![
                    stats(n0, true, None),
                    stats(n1, false, Some(SalvageStep::GhostWire)),
                    stats(n2, false, None),
                ],
            },
            place_time: Duration::ZERO,
            route_time: Duration::ZERO,
            degradations: vec![Degradation::PlacementRecovered("boom".into())],
        };
        assert!(!outcome.is_clean());
        let run = outcome.run_report_with("t", &DiagramMetrics::default());
        let kinds: Vec<&str> = run.degradations.iter().map(|d| d.kind.as_str()).collect();
        assert_eq!(kinds, ["placement_recovered", "net_salvaged", "net_unrouted"]);
        assert_eq!(run.metrics.counters["degradations"], 3);
        let (salvaged, unrouted) = (&run.degradations[1], &run.degradations[2]);
        assert_eq!(salvaged.net.as_deref(), Some(net.net(n1).name()));
        assert_eq!(salvaged.stage.as_deref(), Some("ghost_wire"));
        assert_eq!(
            (salvaged.routed, salvaged.over_budget, salvaged.nodes_expanded),
            (Some(false), Some(true), Some(12))
        );
        assert_eq!(unrouted.net.as_deref(), Some(net.net(n2).name()));
        assert_eq!(unrouted.stage, None);
    }

    #[test]
    fn builder_setters() {
        let g = Generator::new()
            .with_placing(PlaceConfig::clusters())
            .with_routing(RouteConfig::new().without_claimpoints());
        assert_eq!(g.placing().max_part_size, 5);
        assert!(!g.routing().claimpoints);
    }
}
