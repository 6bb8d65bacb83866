use netart_geom::{Point, Segment};
use netart_netlist::{NetId, Network};

use crate::sweep::{self, Wire};
use crate::{CheckReport, DiagramMetrics, NetPath, Placement};

/// A straight-line placeholder for a net that could not be routed: the
/// degraded-output mode of the salvage cascade. Ghost wires ignore the
/// rectilinear wiring rules — each pair is rendered as a direct
/// (possibly diagonal) dashed line — and are kept apart from real
/// routes so checks and metrics never mistake them for wiring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostWire {
    /// Terminal-to-terminal straight lines covering the net's pins.
    pub lines: Vec<(Point, Point)>,
}

/// A complete schematic diagram: network + placement + routed nets.
///
/// This is the artifact the whole generator produces (fig 3.2 of the
/// paper): the placement phase fills in the [`Placement`], the routing
/// phase adds one [`NetPath`] per net. Nets the router could not
/// complete stay `None`, matching the paper's EUREKA behaviour of
/// warning about unroutable nets rather than failing the run.
#[derive(Debug, Clone)]
pub struct Diagram {
    network: Network,
    placement: Placement,
    routes: Vec<Option<NetPath>>,
    ghosts: Vec<Option<GhostWire>>,
}

impl Diagram {
    /// A diagram over `network` with the given placement and no routed
    /// nets yet.
    pub fn new(network: Network, placement: Placement) -> Self {
        let nets = network.net_count();
        Diagram {
            network,
            placement,
            routes: vec![None; nets],
            ghosts: vec![None; nets],
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Mutable access to the placement (for interactive edits, the
    /// paper's schematic-editor loop).
    pub fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    /// The routed path of a net, if routed.
    pub fn route(&self, n: NetId) -> Option<&NetPath> {
        self.routes[n.index()].as_ref()
    }

    /// Sets (or replaces) the routed path of a net. A real route
    /// supersedes any ghost wire the net had.
    pub fn set_route(&mut self, n: NetId, path: NetPath) {
        self.routes[n.index()] = Some(path);
        self.ghosts[n.index()] = None;
    }

    /// Removes the routed path of a net, returning it.
    pub fn clear_route(&mut self, n: NetId) -> Option<NetPath> {
        self.routes[n.index()].take()
    }

    /// Iterates over `(net, path)` for the routed nets.
    pub fn routes(&self) -> impl Iterator<Item = (NetId, &NetPath)> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|p| (NetId::from_index(i), p)))
    }

    /// Nets that have no route yet.
    pub fn unrouted(&self) -> Vec<NetId> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| if r.is_none() { Some(NetId::from_index(i)) } else { None })
            .collect()
    }

    /// The ghost wire of a net, if the salvage cascade emitted one.
    pub fn ghost(&self, n: NetId) -> Option<&GhostWire> {
        self.ghosts[n.index()].as_ref()
    }

    /// Marks a net as unroutable with a straight-line placeholder.
    /// Ignored when the net already has a real route.
    pub fn set_ghost(&mut self, n: NetId, ghost: GhostWire) {
        if self.routes[n.index()].is_none() {
            self.ghosts[n.index()] = Some(ghost);
        }
    }

    /// Removes the ghost wire of a net, returning it.
    pub fn clear_ghost(&mut self, n: NetId) -> Option<GhostWire> {
        self.ghosts[n.index()].take()
    }

    /// Iterates over `(net, ghost)` for the ghost-wired nets.
    pub fn ghosts(&self) -> impl Iterator<Item = (NetId, &GhostWire)> {
        self.ghosts
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (NetId::from_index(i), g)))
    }

    /// Splits the diagram back into its parts (ghost wires, being
    /// placeholders rather than geometry, are dropped).
    pub fn into_parts(self) -> (Network, Placement, Vec<Option<NetPath>>) {
        (self.network, self.placement, self.routes)
    }

    /// Computes the aggregate quality metrics.
    pub fn metrics(&self) -> DiagramMetrics {
        let mut m = DiagramMetrics::default();
        for route in &self.routes {
            match route {
                Some(p) => {
                    let wire = Wire::new(p.segments());
                    m.routed_nets += 1;
                    m.total_length += wire.length();
                    m.total_bends += u64::from(wire.bends());
                    m.branch_points += wire.branch_points().len() as u64;
                }
                None => m.unrouted_nets += 1,
            }
        }
        let routed: Vec<&[Segment]> = self.routes.iter().flatten().map(NetPath::segments).collect();
        m.crossovers = sweep::crossings(&routed).len() as u64;
        if let Some(bb) = self.placement.bounding_box(&self.network) {
            m.bounding_area = bb.area();
        }
        m
    }

    /// The metrics that the sweep replaced, kept as their tests' oracle.
    #[cfg(test)]
    pub(crate) fn metrics_by_pairs(&self) -> DiagramMetrics {
        let mut m = DiagramMetrics::default();
        for route in &self.routes {
            match route {
                Some(p) => {
                    m.routed_nets += 1;
                    m.total_length += u64::from(p.length_by_unit_edges());
                    m.total_bends += u64::from(crate::path::tests::bends_by_adjacency(p));
                    m.branch_points += p.branch_points_by_adjacency().len() as u64;
                }
                None => m.unrouted_nets += 1,
            }
        }
        let routed: Vec<&NetPath> = self.routes.iter().flatten().collect();
        for (i, a) in routed.iter().enumerate() {
            for b in &routed[i + 1..] {
                m.crossovers += a.crossings_by_pairs(b).len() as u64;
            }
        }
        if let Some(bb) = self.placement.bounding_box(&self.network) {
            m.bounding_area = bb.area();
        }
        m
    }

    /// Runs the full structural check; see [`CheckReport`].
    pub fn check(&self) -> CheckReport {
        CheckReport::run(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart_geom::{Point, Rotation, Segment};
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    fn diagram() -> (Diagram, NetId) {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("gate", (4, 2))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("y", (4, 1), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        let network = b.finish().unwrap();
        let n = network.net_by_name("n").unwrap();
        let mut placement = Placement::new(&network);
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(8, 0), Rotation::R0);
        (Diagram::new(network, placement), n)
    }

    #[test]
    fn route_lifecycle() {
        let (mut d, n) = diagram();
        assert_eq!(d.unrouted(), vec![n]);
        assert!(d.route(n).is_none());
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        assert!(d.unrouted().is_empty());
        assert_eq!(d.routes().count(), 1);
        let taken = d.clear_route(n).unwrap();
        assert_eq!(taken.length(), 4);
        assert_eq!(d.unrouted(), vec![n]);
    }

    #[test]
    fn metrics_aggregate() {
        let (mut d, n) = diagram();
        let m = d.metrics();
        assert_eq!(m.unrouted_nets, 1);
        assert_eq!(m.routed_nets, 0);
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        let m = d.metrics();
        assert_eq!(m.routed_nets, 1);
        assert_eq!(m.total_length, 4);
        assert_eq!(m.total_bends, 0);
        assert_eq!(m.crossovers, 0);
        assert_eq!(m.bounding_area, 12 * 2);
        assert_eq!(m.completion(), 1.0);
    }

    #[test]
    fn ghost_lifecycle() {
        let (mut d, n) = diagram();
        let ghost = GhostWire {
            lines: vec![(Point::new(4, 1), Point::new(8, 1))],
        };
        d.set_ghost(n, ghost.clone());
        assert_eq!(d.ghost(n), Some(&ghost));
        assert_eq!(d.ghosts().count(), 1);
        // Ghosts are placeholders: the net still counts as unrouted.
        assert_eq!(d.unrouted(), vec![n]);
        assert_eq!(d.metrics().unrouted_nets, 1);
        // A real route supersedes the ghost.
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        assert!(d.ghost(n).is_none());
        // And a ghost never overwrites a real route.
        d.set_ghost(n, ghost);
        assert!(d.ghost(n).is_none());
        assert!(d.route(n).is_some());
        assert!(d.clear_ghost(n).is_none());
    }

    #[test]
    fn into_parts_round_trip() {
        let (d, n) = diagram();
        let (net, placement, routes) = d.into_parts();
        assert_eq!(routes.len(), net.net_count());
        let d2 = Diagram::new(net, placement);
        assert!(d2.route(n).is_none());
    }
}
