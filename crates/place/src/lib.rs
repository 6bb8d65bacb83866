//! PABLO — the placement phase of the `netart` schematic diagram
//! generator (§4 of Koster & Stok, 1989), plus the baseline placement
//! algorithms the paper discusses.
//!
//! The PABLO pipeline (§4.6) runs in six steps:
//!
//! 1. [`partition`] — greedy seeded clustering into functional parts
//!    (Rule 1 of §3.2),
//! 2. [`form_boxes`] — longest-path search for strings of
//!    driver→consumer connected modules inside each partition
//!    (left-to-right signal flow, Rule 3),
//! 3. module placement — each string laid out left to right with
//!    rotations that minimise bends (§4.6.4 and its lemma),
//! 4. box placement — centre-of-gravity packing of boxes inside their
//!    partition (§4.6.5),
//! 5. partition placement — the same one level up (§4.6.6),
//! 6. terminal placement — system terminals on a ring around the
//!    bounding box (§4.6.7, Rule 4).
//!
//! The [`Pablo`] facade runs all six and returns a
//! [`netart_diagram::Placement`]; [`PlaceConfig`] carries the Appendix E
//! options (`-p`, `-b`, `-c`, `-e`, `-i`, `-s`, `-g`).
//!
//! The [`baseline`] module holds the comparison algorithms of §4.2–4.3:
//! epitaxial growth, min-cut bipartitioning and logic-schematic column
//! placement.
//!
//! # Examples
//!
//! ```
//! use netart_place::{Pablo, PlaceConfig};
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
//! let placer = Pablo::new(PlaceConfig::strings());
//! let placement = placer.place(&network);
//! assert!(placement.is_complete());
//! assert!(placement.overlap_violations(&network).is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod baseline;
mod boxes;
mod cluster;
mod config;
mod gravity;
mod module_place;
#[cfg(test)]
mod oracle;
mod pablo;
mod partition;
mod terminal_place;

pub use boxes::{construct_roots, form_boxes};
pub use config::PlaceConfig;
pub use module_place::{layout_box, BoxLayout};
pub use pablo::Pablo;
pub use partition::{partition, Partitioning};
