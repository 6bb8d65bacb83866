//! Integer-plane geometry substrate for the `netart` schematic diagram
//! generator.
//!
//! Schematic diagrams in the Koster & Stok (1989) generator live on an
//! integer grid: modules are axis-aligned rectangles, terminals are grid
//! points on module boundaries, and net paths are rectilinear chains of
//! axis-aligned segments. This crate provides those primitives:
//!
//! * [`Point`] — a grid coordinate,
//! * [`Rect`] — an axis-aligned rectangle given by its lower-left corner
//!   and size,
//! * [`Interval`] — a closed 1-D integer range,
//! * [`Segment`] — an axis-aligned segment on an integer track, and
//!   [`coalesce`], which joins collinear pieces into maximal runs,
//! * [`Dir`] / [`Side`] / [`Axis`] — the four plane directions, module
//!   sides and the two axes,
//! * [`Rotation`] — the four right-angle module orientations.
//!
//! # Examples
//!
//! ```
//! use netart_geom::{Point, Rect, Segment};
//!
//! let module = Rect::new(Point::new(2, 3), 4, 2);
//! assert!(module.contains(Point::new(4, 4)));
//!
//! let wire = Segment::horizontal(5, 0, 10);
//! assert_eq!(wire.len(), 10);
//! assert!(wire.contains(Point::new(7, 5)));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod dir;
mod interval;
mod point;
mod rect;
mod rotation;
mod segment;

pub use dir::{Axis, Dir, Side};
pub use interval::Interval;
pub use point::Point;
pub use rect::Rect;
pub use rotation::Rotation;
pub use segment::{coalesce, Segment};
