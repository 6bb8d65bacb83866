//! Command-line schematic diagram generation.
//!
//! The paper shipped its generator as two UNIX programs plus a library
//! tool (Appendices B, E, F). This crate provides the same trio:
//!
//! * **`quinto`** — adds module descriptions to a library directory,
//! * **`pablo [options] net-list call-file [io-file]`** — places a
//!   network (`-p -b -c -e -i -s`, `-g` for a preplaced part),
//! * **`eureka [options] net-list call-file [io-file]`** — routes a
//!   placed diagram (`-u -d -r -l` fixed borders, `-s` swapped
//!   tie-break, `--diagram` for the placement to route),
//! * **`netart [options] net-list call-file [io-file]`** — both phases
//!   in one run, with an ASCII preview (`--art`).
//!
//! One deliberate divergence from 1989: the original `eureka` read only
//! the ESCHER graphic file because the module library lived in a global
//! `USER_LIB` environment variable; here the library is an explicit
//! `-L <dir>` of quinto files and the netlist files are always passed,
//! which keeps runs reproducible. `USER_LIB` is honoured as the default
//! library directory when `-L` is absent.
//!
//! Everything is implemented in this library crate so it can be tested;
//! the binaries are thin wrappers over [`finish`]. Every entry point
//! shares one front end (`session.rs`): the shared flag family, the
//! stdout claim, the governed input refusal and the exit code.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod args;
mod batch;
mod blackbox;
mod commands;
mod http;
mod profile;
mod serve;
mod session;
mod shard;
mod stress;
mod sys;

pub use args::{ArgError, ParsedArgs};
pub use batch::{install_drain_handlers, install_flight_handler, run_batch};
pub use blackbox::run_blackbox;
pub use commands::{run_eureka, run_netart, run_pablo, run_quinto, run_report_diff, CliError};
pub use profile::run_profile;
pub use serve::run_serve;
pub use session::{finish, RunOutput};
pub use stress::run_stress;
