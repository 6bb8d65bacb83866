//! Schematic diagram model for the `netart` generator.
//!
//! A diagram (§3.2 of Koster & Stok, 1989) is a network together with
//!
//! * a [`Placement`] — a position and orientation for every module and a
//!   position for every system terminal, and
//! * a set of routed [`NetPath`]s — rectilinear trees connecting each
//!   net's terminals.
//!
//! [`Diagram`] bundles the three and offers the quality metrics the
//! paper's guidelines optimise (wire length, bends, crossovers,
//! branching nodes — Rules 5 and 6 of §3.2) plus structural checks that
//! take the place of the ESCHER simulation run in the paper's example 3:
//! every routed net must form a connected tree touching exactly its
//! pins, must not overlap modules or other nets, and may share only
//! crossing points with other nets.
//!
//! # Examples
//!
//! ```
//! use netart_diagram::{NetPath, Placement};
//! use netart_geom::{Point, Rotation, Segment};
//! use netart_netlist::{Library, NetworkBuilder, Template, TermType};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
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
//! let mut placement = Placement::new(&network);
//! placement.place_module(u0, Point::new(0, 0), Rotation::R0);
//! placement.place_module(u1, Point::new(8, 0), Rotation::R0);
//! // u0.y is at (4, 1), u1.a at (8, 1): a straight wire connects them.
//! let path = NetPath::from_segments(vec![Segment::horizontal(1, 4, 8)]);
//! assert_eq!(path.length(), 4);
//! assert_eq!(path.bends(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ascii;
mod check;
mod diagram;
pub mod escher;
mod metrics;
mod path;
mod placement;
pub mod svg;
mod sweep;

pub use check::{CheckError, CheckReport};
pub use diagram::{Diagram, GhostWire};
pub use metrics::DiagramMetrics;
pub use path::NetPath;
pub use placement::{PlacedModule, Placement, PlacementStructure};
