use std::fmt;

use netart_geom::{Axis, Point, Rect, Segment};
use netart_netlist::{ModuleId, NetId};

use crate::sweep::{self, Wire};
use crate::Diagram;

/// One violation found by [`CheckReport::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A module or system terminal has no position.
    Unplaced {
        /// Description of the unplaced item.
        item: String,
    },
    /// Placement overlap (modules or terminals).
    PlacementOverlap {
        /// Description of the overlap.
        detail: String,
    },
    /// A routed net does not connect all its pins into one tree.
    NetDisconnected {
        /// The offending net.
        net: NetId,
        /// Net name for diagnostics.
        name: String,
    },
    /// A routed net contains a cycle.
    NetCyclic {
        /// The offending net.
        net: NetId,
        /// Net name for diagnostics.
        name: String,
    },
    /// A net wire enters a module at a point that is not one of the
    /// net's own terminals.
    NetOverModule {
        /// The offending net.
        net: NetId,
        /// The module it violates.
        module: String,
        /// A witness point of the violation.
        at: Point,
    },
    /// A net wire covers a system terminal belonging to a different
    /// net.
    NetOverForeignTerminal {
        /// The offending net.
        net: NetId,
        /// The terminal it covers.
        terminal: String,
    },
    /// Two nets share points other than perpendicular crossings.
    NetContact {
        /// First net.
        a: NetId,
        /// Second net.
        b: NetId,
        /// A witness point.
        at: Point,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Unplaced { item } => write!(f, "unplaced: {item}"),
            CheckError::PlacementOverlap { detail } => write!(f, "placement overlap: {detail}"),
            CheckError::NetDisconnected { name, .. } => {
                write!(f, "net `{name}` does not connect all its pins")
            }
            CheckError::NetCyclic { name, .. } => write!(f, "net `{name}` contains a cycle"),
            CheckError::NetOverModule { module, at, .. } => {
                write!(f, "net wire enters module `{module}` at {at}")
            }
            CheckError::NetOverForeignTerminal { terminal, .. } => {
                write!(f, "net wire covers foreign system terminal `{terminal}`")
            }
            CheckError::NetContact { a, b, at } => {
                write!(f, "nets {a} and {b} illegally touch at {at}")
            }
        }
    }
}

/// Result of the structural diagram check.
///
/// This takes the place of the ESCHER simulation in the paper's example
/// 3: it proves the routed diagram is electrically the given netlist and
/// respects the §3.2/§5.3 postconditions. Unrouted nets are *not*
/// errors (the router reports them separately); routed geometry must be
/// sound.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    errors: Vec<CheckError>,
}

impl CheckReport {
    /// Runs all checks on a diagram.
    pub fn run(diagram: &Diagram) -> Self {
        let mut errors = Vec::new();
        let network = diagram.network();
        let placement = diagram.placement();

        for m in network.modules() {
            if placement.module(m).is_none() {
                errors.push(CheckError::Unplaced {
                    item: format!("module {}", network.instance(m).name()),
                });
            }
        }
        for st in network.system_terms() {
            if placement.system_term(st).is_none() {
                errors.push(CheckError::Unplaced {
                    item: format!("system terminal {}", network.system_term(st).name()),
                });
            }
        }
        if !errors.is_empty() {
            // Geometry checks need a complete placement.
            return CheckReport { errors };
        }

        for detail in placement.overlap_violations(network) {
            errors.push(CheckError::PlacementOverlap { detail });
        }

        // A wire may touch a module boundary, where terminals live and
        // tracks run, but never enter it; a segment can only enter the
        // modules whose left edge is at most the widest width left of it.
        let mut by_left: Vec<(ModuleId, Rect)> =
            network.modules().map(|m| (m, placement.module_rect(network, m))).collect();
        by_left.sort_unstable_by_key(|(_, r)| r.lower_left().x);
        let widest = by_left.iter().map(|(_, r)| i64::from(r.width())).max().unwrap_or(0);

        // Per-net checks.
        let mut wires: Vec<(NetId, Wire)> = Vec::new();
        for (n, path) in diagram.routes() {
            let name = network.net(n).name().to_owned();
            let pins: Vec<Point> = network
                .net(n)
                .pins()
                .iter()
                .map(|&p| placement.pin_position(network, p))
                .collect();
            let wire = Wire::new(path.segments());
            if !wire.connects(&pins) {
                errors.push(CheckError::NetDisconnected { net: n, name: name.clone() });
            }
            if !wire.is_tree() {
                errors.push(CheckError::NetCyclic { net: n, name: name.clone() });
            }
            wires.push((n, wire));

            let mut entries = Vec::new();
            for (k, seg) in path.segments().iter().enumerate() {
                let (lo, hi) = seg.endpoints();
                let reach = i64::from(lo.x) - widest;
                let from = by_left.partition_point(|(_, r)| i64::from(r.lower_left().x) < reach);
                for (m, r) in by_left[from..].iter().take_while(|(_, r)| r.lower_left().x <= hi.x) {
                    entries.extend(first_inside(seg, r).map(|at| (*m, k, at)));
                }
            }
            entries.sort_unstable();
            errors.extend(entries.into_iter().map(|(m, _, at)| CheckError::NetOverModule {
                net: n,
                module: network.instance(m).name().to_owned(),
                at,
            }));

            // Foreign system terminals.
            for st in network.system_terms() {
                if network.system_term_net(st) == Some(n) {
                    continue;
                }
                let p = placement
                    .system_term(st)
                    .expect("checked placed above");
                if path.contains(p) {
                    errors.push(CheckError::NetOverForeignTerminal {
                        net: n,
                        terminal: network.system_term(st).name().to_owned(),
                    });
                }
            }
        }

        // Net contacts, each pair with its least illegal point.
        for (a, b, at) in sweep::contacts(wires.iter().map(|(_, w)| w)) {
            errors.push(CheckError::NetContact { a: wires[a].0, b: wires[b].0, at });
        }

        CheckReport { errors }
    }

    /// The checker that the sweep replaced, kept as its tests' oracle:
    /// it rasterises each segment over every module and compares the
    /// unit-edge graphs of every pair of routed nets.
    #[cfg(test)]
    fn run_by_rasterising(diagram: &Diagram) -> Self {
        let mut errors = Vec::new();
        let network = diagram.network();
        let placement = diagram.placement();

        for m in network.modules() {
            if placement.module(m).is_none() {
                errors.push(CheckError::Unplaced {
                    item: format!("module {}", network.instance(m).name()),
                });
            }
        }
        for st in network.system_terms() {
            if placement.system_term(st).is_none() {
                errors.push(CheckError::Unplaced {
                    item: format!("system terminal {}", network.system_term(st).name()),
                });
            }
        }
        if !errors.is_empty() {
            // Geometry checks need a complete placement.
            return CheckReport { errors };
        }

        for detail in placement.overlap_violations(network) {
            errors.push(CheckError::PlacementOverlap { detail });
        }

        // Per-net checks.
        for (n, path) in diagram.routes() {
            let name = network.net(n).name().to_owned();
            let pins: Vec<Point> = network
                .net(n)
                .pins()
                .iter()
                .map(|&p| placement.pin_position(network, p))
                .collect();
            if !crate::path::tests::connects_by_unit_edges(path, &pins) {
                errors.push(CheckError::NetDisconnected { net: n, name: name.clone() });
            }
            if !path.is_tree_by_adjacency() {
                errors.push(CheckError::NetCyclic { net: n, name: name.clone() });
            }

            // Module overlap: a wire may touch a module boundary (that
            // is where terminals live and where routing tracks run) but
            // never enter its interior.
            for m in network.modules() {
                let rect = placement.module_rect(network, m);
                'seg: for seg in path.segments() {
                    let (tlo, thi) = match seg.axis() {
                        netart_geom::Axis::Horizontal => {
                            if !rect.y_span().contains(seg.track()) {
                                continue;
                            }
                            let Some(ov) = rect.x_span().intersect(seg.span()) else {
                                continue;
                            };
                            (ov.lo(), ov.hi())
                        }
                        netart_geom::Axis::Vertical => {
                            if !rect.x_span().contains(seg.track()) {
                                continue;
                            }
                            let Some(ov) = rect.y_span().intersect(seg.span()) else {
                                continue;
                            };
                            (ov.lo(), ov.hi())
                        }
                    };
                    for v in tlo..=thi {
                        let p = seg.point_at(v);
                        if rect.contains_strictly(p) {
                            errors.push(CheckError::NetOverModule {
                                net: n,
                                module: network.instance(m).name().to_owned(),
                                at: p,
                            });
                            continue 'seg;
                        }
                    }
                }
            }

            // Foreign system terminals.
            for st in network.system_terms() {
                if network.system_term_net(st) == Some(n) {
                    continue;
                }
                let p = placement
                    .system_term(st)
                    .expect("checked placed above");
                if path.contains(p) {
                    errors.push(CheckError::NetOverForeignTerminal {
                        net: n,
                        terminal: network.system_term(st).name().to_owned(),
                    });
                }
            }
        }

        // Pairwise net contacts.
        let routed: Vec<(NetId, &crate::NetPath)> = diagram.routes().collect();
        for (i, &(na, pa)) in routed.iter().enumerate() {
            for &(nb, pb) in &routed[i + 1..] {
                if let Some(&at) = pa.illegal_contacts_with(pb).first() {
                    errors.push(CheckError::NetContact { a: na, b: nb, at });
                }
            }
        }

        CheckReport { errors }
    }

    /// `true` when no violations were found.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// The violations found.
    pub fn errors(&self) -> &[CheckError] {
        &self.errors
    }
}

/// The first point along `seg` strictly inside `rect`, if any.
fn first_inside(seg: &Segment, rect: &Rect) -> Option<Point> {
    let corner = rect.lower_left();
    let edge = if seg.axis() == Axis::Horizontal { corner.x } else { corner.y };
    let p = seg.point_at(seg.span().lo().max(edge.saturating_add(1)));
    (rect.contains_strictly(p) && seg.contains(p)).then_some(p)
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.errors.is_empty() {
            return f.write_str("diagram check: ok");
        }
        writeln!(f, "diagram check: {} violation(s)", self.errors.len())?;
        for e in &self.errors {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{NetPath, Placement};
    use netart_geom::{Point, Rotation, Segment};
    use netart_netlist::{Library, ModuleId, Network, NetworkBuilder, Template, TermType};

    /// A chain `i → u0 → u1 → u2 → o` of three gates between two
    /// system terminals, one net per link.
    fn chain() -> (Network, Vec<ModuleId>, Vec<netart_netlist::SystemTermId>) {
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
        let us: Vec<ModuleId> =
            (0..3).map(|i| b.add_instance(format!("u{i}"), t).unwrap()).collect();
        let i = b.add_system_terminal("i", TermType::In).unwrap();
        let o = b.add_system_terminal("o", TermType::Out).unwrap();
        b.connect("n0", i).unwrap();
        b.connect_pin("n0", us[0], "a").unwrap();
        b.connect_pin("n1", us[0], "y").unwrap();
        b.connect_pin("n1", us[1], "a").unwrap();
        b.connect_pin("n2", us[1], "y").unwrap();
        b.connect_pin("n2", us[2], "a").unwrap();
        b.connect_pin("n3", us[2], "y").unwrap();
        b.connect("n3", o).unwrap();
        (b.finish().unwrap(), us, vec![i, o])
    }

    /// Segments on a small grid, so wires touch, overlap, cross and
    /// enter modules often; zero-length pieces included.
    fn segment_soup() -> impl Strategy<Value = Vec<Segment>> {
        let segment = (any::<bool>(), 0i32..16, 0i32..16, 0i32..6).prop_map(
            |(horizontal, track, lo, len)| {
                let axis = if horizontal { Axis::Horizontal } else { Axis::Vertical };
                Segment::on_axis(axis, track, netart_geom::Interval::new(lo, lo + len))
            },
        );
        prop::collection::vec(segment, 0..7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On three gates at any positions and rotations (overlaps
        /// allowed), two system terminals and any routes, the sweep
        /// finds the oracle's errors, in its order, with its witnesses,
        /// and the oracle's metrics.
        #[test]
        fn check_and_metrics_match_their_oracles(
            modules in prop::collection::vec((0i32..12, 0i32..12, 0usize..4), 3),
            terms in prop::collection::vec((0i32..16, 0i32..16), 2),
            routes in prop::collection::vec((any::<bool>(), segment_soup()), 4),
        ) {
            let (net, us, sts) = chain();
            let mut p = Placement::new(&net);
            for (&m, &(x, y, r)) in us.iter().zip(&modules) {
                p.place_module(m, Point::new(x, y), Rotation::ALL[r]);
            }
            for (&st, &(x, y)) in sts.iter().zip(&terms) {
                p.place_system_term(st, Point::new(x, y));
            }
            let mut d = Diagram::new(net, p);
            for (i, (routed, segments)) in routes.into_iter().enumerate() {
                if routed {
                    d.set_route(NetId::from_index(i), NetPath::from_segments(segments));
                }
            }
            let (got, want) = (d.check(), CheckReport::run_by_rasterising(&d));
            prop_assert_eq!(got.errors(), want.errors());
            prop_assert_eq!(d.metrics(), d.metrics_by_pairs());
        }
    }

    fn network() -> (Network, ModuleId, ModuleId) {
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
        (b.finish().unwrap(), u0, u1)
    }

    fn placed() -> (Diagram, NetId) {
        let (net, u0, u1) = network();
        let n = net.net_by_name("n").unwrap();
        let mut p = Placement::new(&net);
        p.place_module(u0, Point::new(0, 0), Rotation::R0);
        p.place_module(u1, Point::new(8, 0), Rotation::R0);
        (Diagram::new(net, p), n)
    }

    #[test]
    fn unplaced_detected() {
        let (net, u0, _) = network();
        let mut p = Placement::new(&net);
        p.place_module(u0, Point::new(0, 0), Rotation::R0);
        let d = Diagram::new(net, p);
        let r = d.check();
        assert!(!r.is_ok());
        assert!(matches!(r.errors()[0], CheckError::Unplaced { .. }));
    }

    #[test]
    fn clean_diagram_passes() {
        let (mut d, n) = placed();
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        let r = d.check();
        assert!(r.is_ok(), "{r}");
        assert_eq!(r.to_string(), "diagram check: ok");
    }

    #[test]
    fn disconnected_net_detected() {
        let (mut d, n) = placed();
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 6)]));
        let r = d.check();
        assert!(r.errors().iter().any(|e| matches!(e, CheckError::NetDisconnected { .. })), "{r}");
    }

    #[test]
    fn wire_through_module_detected() {
        let (mut d, n) = placed();
        // Wire dives straight through u1 (which spans x in [8,12], y in [0,2]).
        d.set_route(
            n,
            NetPath::from_segments(vec![
                Segment::horizontal(1, 4, 8),
                Segment::horizontal(1, 8, 10),
                Segment::vertical(10, 1, 5),
                // connect back so the net still touches its pins
            ]),
        );
        let r = d.check();
        assert!(
            r.errors().iter().any(|e| matches!(e, CheckError::NetOverModule { .. })),
            "{r}"
        );
    }

    #[test]
    fn cyclic_net_detected() {
        let (mut d, n) = placed();
        d.set_route(
            n,
            NetPath::from_segments(vec![
                Segment::horizontal(1, 4, 8),
                Segment::horizontal(3, 4, 8),
                Segment::vertical(4, 1, 3),
                Segment::vertical(8, 1, 3),
            ]),
        );
        let r = d.check();
        assert!(r.errors().iter().any(|e| matches!(e, CheckError::NetCyclic { .. })), "{r}");
    }

    #[test]
    fn foreign_terminal_cover_detected() {
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
        let st = b.add_system_terminal("io", TermType::In).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect("m", st).unwrap();
        b.connect_pin("m", u0, "a").unwrap();
        let net = b.finish().unwrap();
        let n = net.net_by_name("n").unwrap();
        let mut p = Placement::new(&net);
        p.place_module(u0, Point::new(0, 0), Rotation::R0);
        p.place_module(u1, Point::new(8, 0), Rotation::R0);
        p.place_system_term(st, Point::new(6, 1)); // sits right on n's track
        let mut d = Diagram::new(net, p);
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        let r = d.check();
        assert!(
            r.errors()
                .iter()
                .any(|e| matches!(e, CheckError::NetOverForeignTerminal { .. })),
            "{r}"
        );
    }

    #[test]
    fn net_contact_detected() {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("g", (2, 4))
                    .unwrap()
                    .with_terminal("a", (2, 1), TermType::Out)
                    .unwrap()
                    .with_terminal("b", (2, 3), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        b.connect_pin("n1", u0, "a").unwrap();
        b.connect_pin("n1", u1, "a").unwrap();
        b.connect_pin("n2", u0, "b").unwrap();
        b.connect_pin("n2", u1, "b").unwrap();
        let net = b.finish().unwrap();
        let n1 = net.net_by_name("n1").unwrap();
        let n2 = net.net_by_name("n2").unwrap();
        let mut p = Placement::new(&net);
        p.place_module(u0, Point::new(0, 0), Rotation::R0);
        p.place_module(u1, Point::new(10, 0), Rotation::R0);
        let mut d = Diagram::new(net, p);
        d.set_route(n1, NetPath::from_segments(vec![Segment::horizontal(1, 2, 12)]));
        // n2 runs along the same track as n1 for part of the way: illegal.
        d.set_route(
            n2,
            NetPath::from_segments(vec![
                Segment::vertical(2, 1, 3),
                Segment::horizontal(1, 2, 5),
                Segment::vertical(5, 1, 3),
                Segment::horizontal(3, 5, 12),
            ]),
        );
        let r = d.check();
        assert!(r.errors().iter().any(|e| matches!(e, CheckError::NetContact { .. })), "{r}");
    }
}
