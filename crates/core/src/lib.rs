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
/// diagram at all. Soft failures — individual nets degraded or lost —
/// are reported as [`Degradation`]s on a successful [`Outcome`]
/// instead.
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

/// A soft failure recorded on an [`Outcome`]: the run finished, but
/// some part of the result is degraded relative to a clean run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The placer panicked; a plain fallback grid placement was used
    /// instead. The payload is the panic message.
    PlacementRecovered(String),
    /// The router panicked; the diagram keeps its placement but has no
    /// routes. The payload is the panic message.
    RoutingAborted(String),
    /// A net needed the salvage cascade. `routed` tells whether the
    /// salvage produced a real route (rip-up retry or Lee fallback) or
    /// only a ghost-wire placeholder.
    NetSalvaged {
        /// The net that failed its regular routing passes.
        net: NetId,
        /// The cascade step that settled it.
        step: SalvageStep,
        /// `true` for a real (if suboptimal) route, `false` for a
        /// ghost wire.
        routed: bool,
    },
    /// A net could not be routed and salvage was disabled, so it has
    /// neither a route nor a ghost wire.
    NetUnrouted(NetId),
}

/// Everything a generator run produces: the finished diagram, the
/// routing report, the phase timings (the quantities of the paper's
/// table 6.1), and any [`Degradation`]s the run had to accept. The
/// run's metrics are derived from these in [`Outcome::run_report`].
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
    /// Everything that went wrong without stopping the run, in the
    /// order it happened. Empty on a clean run.
    pub degradations: Vec<Degradation>,
}

impl Outcome {
    /// `true` when the run needed no fallbacks at all: every net routed
    /// by the regular passes and no phase misbehaved.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty()
    }

    /// Freezes the run into its machine-readable [`RunReport`]:
    /// network size, `place`/`route` phase timings, per-net router
    /// effort, per-degradation context, §4.4 quality metrics and the
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
        for d in &self.degradations {
            report.degradations.push(self.degradation_report(d));
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
        let salvaged = |step| report.salvaged.iter().filter(|s| s.step == step).count() as u64;
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
            ("degradations", self.degradations.len() as u64),
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

    /// One degradation with the context the report schema wants: the
    /// net's name and, where the router recorded them, the budget state
    /// and search effort at the point of failure.
    fn degradation_report(&self, d: &Degradation) -> DegradationReport {
        let network = self.diagram.network();
        let stats_of = |net: NetId| self.report.net_stats.iter().find(|s| s.net == net);
        match d {
            Degradation::PlacementRecovered(msg) => DegradationReport {
                kind: "placement_recovered".into(),
                net: None,
                stage: None,
                routed: None,
                over_budget: None,
                nodes_expanded: None,
                detail: Some(msg.clone()),
            },
            Degradation::RoutingAborted(msg) => DegradationReport {
                kind: "routing_aborted".into(),
                net: None,
                stage: None,
                routed: None,
                over_budget: None,
                nodes_expanded: None,
                detail: Some(msg.clone()),
            },
            Degradation::NetSalvaged { net, step, routed } => {
                let record = self.report.salvaged.iter().find(|s| s.net == *net);
                DegradationReport {
                    kind: "net_salvaged".into(),
                    net: Some(network.net(*net).name().to_owned()),
                    stage: Some(step.as_str().to_owned()),
                    routed: Some(*routed),
                    over_budget: record.map(|r| r.over_budget),
                    nodes_expanded: stats_of(*net).map(|s| s.nodes_expanded),
                    detail: None,
                }
            }
            Degradation::NetUnrouted(net) => DegradationReport {
                kind: "net_unrouted".into(),
                net: Some(network.net(*net).name().to_owned()),
                stage: None,
                routed: Some(false),
                over_budget: stats_of(*net).map(|s| s.over_budget),
                nodes_expanded: stats_of(*net).map(|s| s.nodes_expanded),
                detail: None,
            },
        }
    }
}

/// Nanoseconds of a duration, saturating at `u64::MAX`.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Degradations implied by a routing report: one entry per salvaged
/// net, one per net that stayed unrouted without even a ghost.
fn route_degradations(network: &Network, report: &RouteReport) -> Vec<Degradation> {
    let mut out: Vec<Degradation> = report
        .salvaged
        .iter()
        .map(|s| Degradation::NetSalvaged {
            net: s.net,
            step: s.step,
            routed: !matches!(s.step, SalvageStep::GhostWire),
        })
        .collect();
    for &n in &report.failed {
        if !report.salvaged.iter().any(|s| s.net == n) {
            let stats = report.net_stats.iter().find(|s| s.net == n);
            warn!(
                "net unrouted",
                net = network.net(n).name(),
                over_budget = stats.is_some_and(|s| s.over_budget),
                nodes = stats.map_or(0, |s| s.nodes_expanded),
            );
            out.push(Degradation::NetUnrouted(n));
        }
    }
    out
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
        degradations.extend(route_degradations(diagram.network(), &report));
        info!(
            "pipeline finished",
            routed = report.routed.len() as u64,
            failed = report.failed.len() as u64,
            degradations = degradations.len() as u64,
        );

        Outcome {
            diagram,
            report,
            place_time,
            route_time,
            degradations,
        }
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
        let degradations = route_degradations(diagram.network(), &report);
        Ok(Outcome {
            diagram,
            report,
            place_time: Duration::ZERO,
            route_time,
            degradations,
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
        let report = RouteReport {
            routed: vec![NetId::from_index(0)],
            failed: vec![NetId::from_index(1), NetId::from_index(2)],
            salvaged: vec![netart_route::SalvageRecord {
                net: NetId::from_index(1),
                step: SalvageStep::GhostWire,
                over_budget: true,
                nodes_spent: 12,
                ripup_victims: 0,
            }],
            net_stats: Vec::new(),
        };
        let degradations = route_degradations(&net, &report);
        assert_eq!(degradations.len(), 2);
        assert!(matches!(
            degradations[0],
            Degradation::NetSalvaged { step: SalvageStep::GhostWire, routed: false, .. }
        ));
        assert!(matches!(degradations[1], Degradation::NetUnrouted(n) if n.index() == 2));
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
