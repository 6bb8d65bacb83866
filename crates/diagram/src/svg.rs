//! SVG rendering of schematic diagrams.
//!
//! The paper's figures 6.1–6.7 are plots of generated diagrams; this
//! module produces the equivalent artwork as standalone SVG so results
//! can be inspected visually. Modules render as labelled rectangles,
//! terminals as dots, nets as polylines (one colour per net, cycling
//! through a small palette).

use std::fmt::Write as _;

use netart_geom::{Axis, Rect};

use crate::Diagram;

/// Pixels per grid track.
const SCALE: i64 = 12;
/// Margin around the drawing, in tracks.
const MARGIN: i64 = 3;

const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

/// Renders a diagram as a standalone SVG document with the placement
/// structure overlaid: dashed bounding boxes around every partition
/// and every box, the visual of the paper's figures 4.2–4.5.
///
/// Diagrams without an attached [`crate::PlacementStructure`] (hand
/// placements, baseline placers) render exactly like [`render`].
pub fn render_with_structure(diagram: &Diagram) -> String {
    render_document(diagram, true)
}

/// Renders a diagram as a standalone SVG document.
///
/// Unplaced items are skipped. Unrouted nets simply do not appear, as
/// in the paper's plots of partially routed diagrams — unless the
/// salvage cascade left a [`crate::GhostWire`], which is drawn as a
/// dashed gray line so the missing connection stays visible.
pub fn render(diagram: &Diagram) -> String {
    render_document(diagram, false)
}

/// The picture frame: the placement's bounding box plus the margin,
/// in pixels. Pixel coordinates are `i64`, so a placement wider than
/// `i32` renders too.
struct Frame {
    min_x: i64,
    max_y: i64,
    width: i64,
    height: i64,
}

impl Frame {
    fn of(diagram: &Diagram) -> Frame {
        let bb = diagram.placement().bounding_box(diagram.network());
        let (min_x, min_y, max_x, max_y) = match bb {
            Some(bb) => {
                let (lo, hi) = (bb.lower_left(), bb.upper_right());
                (
                    i64::from(lo.x) - MARGIN,
                    i64::from(lo.y) - MARGIN,
                    i64::from(hi.x) + MARGIN,
                    i64::from(hi.y) + MARGIN,
                )
            }
            // Nothing placed: a 10×10-track blank canvas.
            None => (0, 0, 10, 10),
        };
        Frame {
            min_x,
            max_y,
            width: (max_x - min_x) * SCALE,
            height: (max_y - min_y) * SCALE,
        }
    }

    fn x(&self, x: i32) -> i64 {
        (i64::from(x) - self.min_x) * SCALE
    }

    /// SVG y grows downwards; flip so diagram y grows upwards.
    fn y(&self, y: i32) -> i64 {
        (self.max_y - i64::from(y)) * SCALE
    }
}

/// Writes one `<rect>` element: `r` in pixels, then `style`.
fn write_rect(out: &mut String, frame: &Frame, r: &Rect, style: &str) {
    let (lo, hi) = (r.lower_left(), r.upper_right());
    let _ = writeln!(
        out,
        r#"<rect x="{}" y="{}" width="{}" height="{}" {style}/>"#,
        frame.x(lo.x),
        frame.y(hi.y),
        (i64::from(hi.x) - i64::from(lo.x)) * SCALE,
        (i64::from(hi.y) - i64::from(lo.y)) * SCALE
    );
}

fn render_document(diagram: &Diagram, with_structure: bool) -> String {
    let network = diagram.network();
    let placement = diagram.placement();
    let frame = Frame::of(diagram);
    let (width, height) = (frame.width, frame.height);

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">"#
    );
    let _ = writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#);

    // Nets first so modules draw over them at boundaries.
    for (i, (n, path)) in diagram.routes().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let name = network.net(n).name();
        for seg in path.segments() {
            let (a, b) = seg.endpoints();
            let _ = writeln!(
                out,
                r#"<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="{color}" stroke-width="2"><title>{name}</title></line>"#,
                frame.x(a.x),
                frame.y(a.y),
                frame.x(b.x),
                frame.y(b.y)
            );
        }
    }

    // Ghost wires: dashed gray placeholders for unroutable nets.
    for (n, ghost) in diagram.ghosts() {
        let name = network.net(n).name();
        for &(a, b) in &ghost.lines {
            let _ = writeln!(
                out,
                r##"<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="#aaaaaa" stroke-width="1.5" stroke-dasharray="5,4"><title>{name} (unrouted)</title></line>"##,
                frame.x(a.x),
                frame.y(a.y),
                frame.x(b.x),
                frame.y(b.y)
            );
        }
    }

    for m in network.modules() {
        if placement.module(m).is_none() {
            continue;
        }
        let r = placement.module_rect(network, m);
        write_rect(&mut out, &frame, &r, r##"fill="#f5f5f0" stroke="black" stroke-width="2""##);
        let c = r.center();
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{}" font-family="monospace" font-size="10" text-anchor="middle">{}</text>"#,
            frame.x(c.x),
            frame.y(c.y) + 3,
            network.instance(m).name()
        );
        let tpl = network.template_of(m);
        for t in 0..tpl.terminal_count() {
            let p = placement.terminal_position(network, m, t);
            let _ = writeln!(
                out,
                r#"<circle cx="{}" cy="{}" r="2.5" fill="black"><title>{}.{}</title></circle>"#,
                frame.x(p.x),
                frame.y(p.y),
                network.instance(m).name(),
                tpl.terminals()[t].name()
            );
        }
    }

    for st in network.system_terms() {
        if let Some(p) = placement.system_term(st) {
            let _ = writeln!(
                out,
                r#"<rect x="{}" y="{}" width="8" height="8" fill="white" stroke="black" stroke-width="1.5"/>"#,
                frame.x(p.x) - 4,
                frame.y(p.y) - 4
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="monospace" font-size="9" text-anchor="middle">{}</text>"#,
                frame.x(p.x),
                frame.y(p.y) - 7,
                network.system_term(st).name()
            );
        }
    }

    if let Some(structure) = placement.structure().filter(|_| with_structure) {
        let hull = |modules: &[netart_netlist::ModuleId]| -> Option<Rect> {
            modules
                .iter()
                .filter(|m| placement.module(**m).is_some())
                .map(|&m| placement.module_rect(network, m))
                .reduce(|a, b| a.hull(&b))
        };
        for part in &structure.partitions {
            for string in part {
                if let Some(r) = hull(string) {
                    let style = r##"fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="3,3""##;
                    write_rect(&mut out, &frame, &r.inflate(1), style);
                }
            }
            let all: Vec<netart_netlist::ModuleId> = part.iter().flatten().copied().collect();
            if let Some(r) = hull(&all) {
                let style = r##"fill="none" stroke="#555555" stroke-width="1.5" stroke-dasharray="7,4""##;
                write_rect(&mut out, &frame, &r.inflate(2), style);
            }
        }
    }

    out.push_str("</svg>\n");
    debug_assert!(sanity(&out));
    out
}

/// Very light structural sanity used by debug assertions and tests.
fn sanity(svg: &str) -> bool {
    svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>")
}

/// Counts the drawn wire segments, exposed for tests.
pub fn wire_segment_count(svg: &str) -> usize {
    svg.matches("<line ").count()
}

/// Orientation statistics over drawn wires `(horizontal, vertical)`,
/// exposed for tests: every wire must be axis-aligned.
pub fn wire_orientations(diagram: &Diagram) -> (usize, usize) {
    let mut h = 0;
    let mut v = 0;
    for (_, path) in diagram.routes() {
        for seg in path.segments() {
            match seg.axis() {
                Axis::Horizontal => h += 1,
                Axis::Vertical => v += 1,
            }
        }
    }
    (h, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetPath, Placement};
    use netart_geom::{Point, Rotation, Segment};
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    fn diagram() -> Diagram {
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
        let network = b.finish().unwrap();
        let n = network.net_by_name("n").unwrap();
        let mut placement = Placement::new(&network);
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(8, 0), Rotation::R0);
        placement.place_system_term(st, Point::new(-2, 1));
        let mut d = Diagram::new(network, placement);
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        d
    }

    #[test]
    fn renders_valid_svg_with_all_elements() {
        let d = diagram();
        let svg = render(&d);
        assert!(sanity(&svg));
        assert_eq!(svg.matches("<rect ").count(), 2 + 1 + 1); // bg + 2 modules + 1 terminal
        assert_eq!(wire_segment_count(&svg), 1);
        assert!(svg.contains(">u0<"));
        assert!(svg.contains(">io<"));
    }

    #[test]
    fn empty_placement_still_renders() {
        let d = diagram();
        let (net, _, _) = d.into_parts();
        let empty = Diagram::new(net.clone(), Placement::new(&net));
        let svg = render(&empty);
        assert!(sanity(&svg));
        assert_eq!(wire_segment_count(&svg), 0);
    }

    #[test]
    fn orientation_stats() {
        let d = diagram();
        assert_eq!(wire_orientations(&d), (1, 0));
    }

    #[test]
    fn ghost_wires_render_dashed() {
        let mut d = diagram();
        let m = d.network().net_by_name("m").unwrap();
        d.set_ghost(
            m,
            crate::GhostWire {
                lines: vec![(Point::new(-2, 1), Point::new(0, 1))],
            },
        );
        let svg = render(&d);
        assert!(sanity(&svg));
        assert_eq!(wire_segment_count(&svg), 2, "real wire + ghost line");
        assert_eq!(svg.matches(r##"stroke="#aaaaaa""##).count(), 1);
        assert!(svg.contains("m (unrouted)"));
    }

    #[test]
    fn structure_overlay_adds_dashed_boxes() {
        let mut d = diagram();
        // Without a structure the overlay renderer matches the plain one.
        assert_eq!(render_with_structure(&d), render(&d));
        let ms: Vec<netart_netlist::ModuleId> = d.network().modules().collect();
        d.placement_mut().set_structure(crate::PlacementStructure {
            partitions: vec![vec![vec![ms[0]]], vec![vec![ms[1]]]],
        });
        let svg = render_with_structure(&d);
        assert!(sanity(&svg));
        assert_eq!(svg.matches("stroke-dasharray").count(), 4, "{svg}");
    }
}
