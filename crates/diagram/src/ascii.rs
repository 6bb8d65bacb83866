//! ASCII-art rendering of schematic diagrams.
//!
//! Before plotters, schematics went to line printers; this renderer
//! keeps that spirit for terminals and tests. One character per grid
//! point: module outlines with `+-|`, instance names inside, wires as
//! `-` and `|` with `+` corners and junctions, `x` where nets cross,
//! `o` for terminals.
//!
//! # Examples
//!
//! ```
//! use netart_diagram::{ascii, Diagram, NetPath, Placement};
//! # use netart_geom::{Point, Rotation, Segment};
//! # use netart_netlist::{Library, NetworkBuilder, Template, TermType};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut lib = Library::new();
//! # let inv = lib.add_template(Template::new("inv", (4, 2))?
//! #     .with_terminal("a", (0, 1), TermType::In)?
//! #     .with_terminal("y", (4, 1), TermType::Out)?)?;
//! # let mut b = NetworkBuilder::new(lib);
//! # let u0 = b.add_instance("u0", inv)?;
//! # let u1 = b.add_instance("u1", inv)?;
//! # b.connect_pin("n", u0, "y")?;
//! # b.connect_pin("n", u1, "a")?;
//! # let network = b.finish()?;
//! # let mut placement = Placement::new(&network);
//! # placement.place_module(u0, Point::new(0, 0), Rotation::R0);
//! # placement.place_module(u1, Point::new(8, 0), Rotation::R0);
//! # let mut d = Diagram::new(network, placement);
//! # let n = d.network().net_by_name("n").unwrap();
//! # d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
//! let art = ascii::render(&d);
//! assert!(art.contains("u0"));
//! assert!(art.contains("---"));
//! # Ok(())
//! # }
//! ```

use netart_geom::{Axis, Point, Rect};

use crate::Diagram;

/// A drawing surface mapping grid points to characters with painter's
/// layering.
struct Canvas {
    min: Point,
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl Canvas {
    fn new(bounds: Rect) -> Self {
        let width = bounds.width() as usize + 1;
        let height = bounds.height() as usize + 1;
        Canvas {
            min: bounds.lower_left(),
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    fn index(&self, p: Point) -> Option<usize> {
        let x = p.x - self.min.x;
        // Flip y: row 0 is the top.
        let y = (self.height as i32 - 1) - (p.y - self.min.y);
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return None;
        }
        Some(y as usize * self.width + x as usize)
    }

    fn get(&self, p: Point) -> char {
        self.index(p).map_or(' ', |i| self.cells[i])
    }

    fn put(&mut self, p: Point, c: char) {
        if let Some(i) = self.index(p) {
            self.cells[i] = c;
        }
    }

    /// Wire-aware plotting: drawing a wire over a perpendicular wire
    /// yields `x` (a crossover), joining parallel/corner wires yields
    /// `+`.
    fn put_wire(&mut self, p: Point, c: char) {
        let existing = self.get(p);
        let merged = match (existing, c) {
            (' ', c) => c,
            ('-', '|') | ('|', '-') => 'x',
            ('x', _) | (_, 'x') => 'x',
            ('+', _) | (_, '+') => '+',
            (a, b) if a == b => a,
            _ => '+',
        };
        self.put(p, merged);
    }

    fn into_string(self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for row in self.cells.chunks(self.width) {
            let line: String = row.iter().collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Renders a diagram as printable ASCII art.
///
/// Intended for small-to-medium diagrams; the string has one text
/// column per grid track, so the LIFE network is ~130 columns wide.
pub fn render(diagram: &Diagram) -> String {
    let network = diagram.network();
    let placement = diagram.placement();
    let Some(bb) = placement.bounding_box(network) else {
        return String::new();
    };
    let mut canvas = Canvas::new(bb.inflate(2));

    // Wires first; modules draw over them.
    for (_, path) in diagram.routes() {
        for seg in path.segments() {
            let span = seg.span();
            let glyph = match seg.axis() {
                Axis::Horizontal => '-',
                Axis::Vertical => '|',
            };
            for v in span.lo()..=span.hi() {
                canvas.put_wire(seg.point_at(v), glyph);
            }
            // Segment ends are corners or junctions unless they continue.
            let (a, b) = seg.endpoints();
            for p in [a, b] {
                if !seg.is_point() {
                    let c = canvas.get(p);
                    if c == 'x' {
                        // An endpoint on a perpendicular wire of the same
                        // net is a junction, not a crossing.
                        canvas.put(p, '+');
                    }
                }
            }
        }
        // Corners: points where the path bends.
        for b in path.branch_points() {
            canvas.put(b, '+');
        }
    }

    // Ghost wires: unroutable nets drawn as `~` placeholder lines
    // (possibly diagonal) so the missing connection stays visible.
    for (_, ghost) in diagram.ghosts() {
        for &(a, b) in &ghost.lines {
            let (dx, dy) = (b.x - a.x, b.y - a.y);
            let steps = dx.abs().max(dy.abs());
            for i in 0..=steps {
                let p = if steps == 0 {
                    a
                } else {
                    Point::new(a.x + dx * i / steps, a.y + dy * i / steps)
                };
                if canvas.get(p) == ' ' {
                    canvas.put(p, '~');
                }
            }
        }
    }

    for m in network.modules() {
        let r = placement.module_rect(network, m);
        let (ll, ur) = (r.lower_left(), r.upper_right());
        for x in ll.x..=ur.x {
            canvas.put(Point::new(x, ll.y), '-');
            canvas.put(Point::new(x, ur.y), '-');
        }
        for y in ll.y..=ur.y {
            canvas.put(Point::new(ll.x, y), '|');
            canvas.put(Point::new(ur.x, y), '|');
        }
        for p in [
            ll,
            ur,
            Point::new(ll.x, ur.y),
            Point::new(ur.x, ll.y),
        ] {
            canvas.put(p, '+');
        }
        // Instance name centred inside (clipped to the interior).
        let name = network.instance(m).name();
        let c = r.center();
        let room = (r.width() - 1).max(0) as usize;
        let label: String = name.chars().take(room).collect();
        let start = c.x - (label.chars().count() as i32) / 2;
        for (i, ch) in label.chars().enumerate() {
            let p = Point::new(start + i as i32, c.y);
            if r.contains_strictly(p) {
                canvas.put(p, ch);
            }
        }
        // Terminals on the outline.
        let tpl = network.template_of(m);
        for t in 0..tpl.terminal_count() {
            canvas.put(placement.terminal_position(network, m, t), 'o');
        }
    }

    for st in network.system_terms() {
        if let Some(p) = placement.system_term(st) {
            canvas.put(p, 'O');
        }
    }

    canvas.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetPath, Placement};
    use netart_geom::{Rotation, Segment};
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    fn diagram() -> Diagram {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("inv", (4, 2))
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
        let st = b.add_system_terminal("in", TermType::In).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect("m", st).unwrap();
        b.connect_pin("m", u0, "a").unwrap();
        let network = b.finish().unwrap();
        let mut placement = Placement::new(&network);
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(8, 0), Rotation::R0);
        placement.place_system_term(st, Point::new(-3, 1));
        let mut d = Diagram::new(network, placement);
        let n = d.network().net_by_name("n").unwrap();
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]));
        let m = d.network().net_by_name("m").unwrap();
        d.set_route(m, NetPath::from_segments(vec![Segment::horizontal(1, -3, 0)]));
        d
    }

    #[test]
    fn renders_modules_wires_and_terminals() {
        let art = render(&diagram());
        assert!(art.contains("u0"), "{art}");
        assert!(art.contains("u1"), "{art}");
        assert!(art.contains('O'), "system terminal marker: {art}");
        assert!(art.contains('o'), "subsystem terminal marker: {art}");
        // The wire between the modules renders as dashes.
        assert!(art.contains("---"), "{art}");
        // Module corners exist.
        assert!(art.contains('+'), "{art}");
    }

    #[test]
    fn ghost_wires_render_as_tildes() {
        let mut d = diagram();
        let m = d.network().net_by_name("m").unwrap();
        d.clear_route(m);
        d.set_ghost(
            m,
            crate::GhostWire {
                lines: vec![(Point::new(-3, 4), Point::new(2, 4))],
            },
        );
        let art = render(&d);
        assert!(art.contains("~~~"), "{art}");
    }

    #[test]
    fn crossing_wires_render_as_x() {
        let mut d = diagram();
        // Add an artificial vertical path crossing the u0-u1 wire.
        let m = d.network().net_by_name("m").unwrap();
        d.set_route(
            m,
            NetPath::from_segments(vec![Segment::vertical(6, -2, 4)]),
        );
        let art = render(&d);
        assert!(art.contains('x'), "{art}");
    }

    #[test]
    fn empty_placement_renders_empty() {
        let d = diagram();
        let (net, _, _) = d.into_parts();
        let empty = Diagram::new(net.clone(), Placement::new(&net));
        assert_eq!(render(&empty), "");
    }

    #[test]
    fn dimensions_cover_bounding_box() {
        let d = diagram();
        let art = render(&d);
        let bb = d
            .placement()
            .bounding_box(d.network())
            .unwrap()
            .inflate(2);
        assert_eq!(art.lines().count(), bb.height() as usize + 1);
        let widest = art.lines().map(|l| l.chars().count()).max().unwrap_or(0);
        assert!(widest <= bb.width() as usize + 1);
    }
}
