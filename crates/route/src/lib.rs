//! EUREKA — the routing phase of the `netart` schematic diagram
//! generator (§5 of Koster & Stok, 1989), plus the baseline routers the
//! paper surveys.
//!
//! The main router implements the *line-expansion* principle (§5.5,
//! after Heyns, Sansen & Beke): instead of probing single escape lines
//! like a line-search router, each expansion step sweeps a whole active
//! segment across the plane and keeps the *borders* of the newly
//! reached zone as the next generation of active segments. The search
//! therefore covers every reachable point — a connection is found
//! whenever one exists — while advancing one bend per generation, so
//! the first meeting of the two wavefronts uses a minimum number of
//! bends; among the meeting points of that generation the router picks
//! minimum crossovers, then minimum wire length (§5.6.1; the `-s`
//! option of Appendix F swaps the two tie-breaks).
//!
//! Extensions from §5.7 are included: *claimpoints* reserving the first
//! track in front of every connected terminal (with a retry pass after
//! all claims are lifted), acceptance of prerouted nets, and fixable
//! plane borders (`-u`/`-d`/`-r`/`-l`).
//!
//! Baselines: [`lee`] (wave-propagation maze router, guaranteed minimum
//! length), [`hightower`] (escape-line router, fast but incomplete) and
//! [`channel`] (left-edge channel router).
//!
//! # Examples
//!
//! ```
//! use netart_place::{Pablo, PlaceConfig};
//! use netart_route::{Eureka, RouteConfig};
//! # use netart_netlist::{Library, NetworkBuilder, Template, TermType};
//! # use netart_diagram::Diagram;
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
//! let placement = Pablo::new(PlaceConfig::strings()).place(&network);
//! let mut diagram = Diagram::new(network, placement);
//! let report = Eureka::new(RouteConfig::default()).route(&mut diagram);
//! assert!(report.failed.is_empty());
//! assert!(diagram.check().is_ok());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod budget;
pub mod channel;
mod config;
mod expand;
pub mod hightower;
pub mod lee;
pub mod line_expansion;
mod obstacles;
mod router;
mod tracks;

pub use budget::{Budget, BudgetBreach, BudgetMeter, CancelToken, TIME_POLL_STRIDE};
pub use config::{NetOrder, RouteConfig};
pub use obstacles::{Obstacle, ObstacleKind, ObstacleMap};
pub use router::{union_bbox, Eureka, NetRouteStats, RouteReport, SalvageStep};
