//! Network model for the `netart` schematic diagram generator.
//!
//! A *network* (§3.2 of Koster & Stok, 1989) consists of modules with
//! terminals, nets connecting subsystem and system terminals, and system
//! terminals forming the interface of the whole diagram. Modules are
//! *instances* of *templates* held in a module [`Library`] (Appendix C of
//! the paper); templates carry the symbol size and terminal geometry.
//!
//! The crate provides:
//!
//! * [`Template`], [`Terminal`], [`TermType`] — the module library side,
//! * [`Network`], [`NetworkBuilder`], [`Pin`] — the netlist side,
//! * typed ids ([`ModuleId`], [`NetId`], [`TemplateId`], [`SystemTermId`]),
//! * connectivity queries used by the placement phase (the paper's
//!   `connected` relation and the counting quantifiers built on it),
//! * the paper's file formats: the net-list / call / IO files
//!   (Appendix A) and the *quinto* module description (Appendix B) are
//!   read and validated by the [`doctor`] and written by
//!   [`mod@format`] and [`format::quinto`].
//!
//! # Examples
//!
//! Building a two-module network by hand:
//!
//! ```
//! use netart_netlist::{Library, NetworkBuilder, Template, TermType};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! let inv = lib.add_template(Template::new("inv", (4, 2))?
//!     .with_terminal("a", (0, 1), TermType::In)?
//!     .with_terminal("y", (4, 1), TermType::Out)?)?;
//!
//! let mut b = NetworkBuilder::new(lib);
//! let u0 = b.add_instance("u0", inv)?;
//! let u1 = b.add_instance("u1", inv)?;
//! let input = b.add_system_terminal("in", TermType::In)?;
//! b.connect("n_in", input)?;
//! b.connect_pin("n_in", u0, "a")?;
//! b.connect_pin("n0", u0, "y")?;
//! b.connect_pin("n0", u1, "a")?;
//! let net = b.finish()?;
//! assert_eq!(net.module_count(), 2);
//! assert_eq!(net.connection_count(u0, u1), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod doctor;
mod error;
pub mod format;
mod ids;
pub mod ingest;
mod library;
mod network;
mod template;

pub use error::{BuildError, ParseError, TemplateError};
pub use ids::{ModuleId, NetId, SystemTermId, TemplateId, TermIdx};
pub use library::Library;
pub use network::{Instance, Net, Network, NetworkBuilder, Pin, SystemTerminal};
pub use template::{Template, TermType, Terminal};
