//! The paper's text file formats.
//!
//! Appendix A defines three whitespace-separated record files describing
//! a network:
//!
//! * the **call-file** — `<INSTANCE> <TEMPLATE>` records naming the
//!   sub-networks,
//! * the **io-file** — `<TERMINAL> <TYPE>` records naming the system
//!   terminals,
//! * the **net-list-file** — `<NET> <INSTANCE> <TERMINAL>` records
//!   attaching pins to nets, with the pseudo-instance `root` denoting a
//!   system terminal.
//!
//! Appendix B defines the *quinto* module description, written by
//! [`quinto`]; Appendix C's library representation of a module symbol
//! lives in [`template_repr`].
//!
//! This module writes the Appendix A/B files. Reading them is the
//! [`crate::doctor`]'s job: it validates every record and, under
//! [`InputPolicy::Strict`](crate::doctor::InputPolicy::Strict), rejects
//! defective input with every diagnostic at once.
//!
//! # Examples
//!
//! ```
//! use netart_netlist::doctor::{doctor_module, doctor_network, InputPolicy};
//! use netart_netlist::{format, Library};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let quinto = "module inv 40 20\nin a 0 10\nout y 40 10\n";
//! let (inv, _) = doctor_module(quinto, InputPolicy::Strict)?;
//! assert_eq!(format::quinto::write_module(&inv), quinto);
//!
//! let mut lib = Library::new();
//! lib.add_template(inv)?;
//! let calls = "u0 inv\nu1 inv\n";
//! let (network, _) = doctor_network(
//!     lib,
//!     "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n",
//!     calls,
//!     Some("in in\n"),
//!     InputPolicy::Strict,
//! )?;
//! assert_eq!(network.module_count(), 2);
//! assert_eq!(format::write_call_file(&network), calls);
//! # Ok(())
//! # }
//! ```

pub mod quinto;
pub mod template_repr;

use crate::Network;

/// Writes the call-file for a network.
pub fn write_call_file(network: &Network) -> String {
    let mut out = String::new();
    for m in network.modules() {
        let inst = network.instance(m);
        out.push_str(inst.name());
        out.push(' ');
        out.push_str(network.template_of(m).name());
        out.push('\n');
    }
    out
}

/// Writes the io-file for a network.
pub fn write_io_file(network: &Network) -> String {
    let mut out = String::new();
    for st in network.system_terms() {
        let t = network.system_term(st);
        out.push_str(t.name());
        out.push(' ');
        out.push_str(&t.ty().to_string());
        out.push('\n');
    }
    out
}

/// Writes the net-list-file for a network.
pub fn write_net_list_file(network: &Network) -> String {
    let mut out = String::new();
    for n in network.nets() {
        let net = network.net(n);
        for pin in net.pins() {
            out.push_str(net.name());
            out.push(' ');
            match *pin {
                crate::Pin::Sub { module, term } => {
                    out.push_str(network.instance(module).name());
                    out.push(' ');
                    out.push_str(network.template_of(module).terminals()[term].name());
                }
                crate::Pin::System(st) => {
                    out.push_str("root ");
                    out.push_str(network.system_term(st).name());
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::{doctor_network, InputPolicy};
    use crate::{Library, Template, TermType};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.add_template(
            Template::new("inv", (4, 2))
                .unwrap()
                .with_terminal("a", (0, 1), TermType::In)
                .unwrap()
                .with_terminal("y", (4, 1), TermType::Out)
                .unwrap(),
        )
        .unwrap();
        lib
    }

    fn read(nets: &str, calls: &str, io: Option<&str>) -> Network {
        doctor_network(lib(), nets, calls, io, InputPolicy::Strict)
            .unwrap()
            .0
    }

    #[test]
    fn parse_minimal_network() {
        let net = read(
            "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\nnout u1 y\nnout root out\n",
            "u0 inv\nu1 inv\n",
            Some("in in\nout out\n"),
        );
        assert_eq!(net.module_count(), 2);
        assert_eq!(net.net_count(), 3);
        assert_eq!(net.system_term_count(), 2);
    }

    #[test]
    fn io_file_optional() {
        let net = read("n0 u0 y\nn0 u1 a\n", "u0 inv\nu1 inv\n", None);
        assert_eq!(net.system_term_count(), 0);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let net = read(
            "# the only net\n\nn0 u0 y\nn0 u1 a\n",
            "u0 inv\n\n# second\nu1 inv\n",
            None,
        );
        assert_eq!(net.net_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        use crate::doctor::DoctorCode::{
            MalformedRecord, UnknownInstance, UnknownTemplate, UnknownTerminal,
        };
        use crate::doctor::DoctorFile::{Calls, NetList};
        let u0 = "u0 inv\n";
        let cases = [
            ("", "u0 unknown_template\n", UnknownTemplate, Calls, 1, "unknown template"),
            ("n0 u0 y\nn0 nobody a\n", u0, UnknownInstance, NetList, 2, "unknown instance"),
            ("n0 u0 zz\n", u0, UnknownTerminal, NetList, 1, "no terminal"),
            ("n0 root missing\n", u0, UnknownTerminal, NetList, 1, "unknown system terminal"),
            ("only-two-fields u0\n", u0, MalformedRecord, NetList, 1, "3 fields"),
        ];
        for (nets, calls, code, file, line, message) in cases {
            let e = doctor_network(lib(), nets, calls, None, InputPolicy::Strict).unwrap_err();
            let d = &e.diagnostics[0];
            assert_eq!((d.code, d.file, d.line), (code, file, line), "{e}");
            assert!(d.message.contains(message), "{e}");
        }
    }

    #[test]
    fn round_trip() {
        let src_nets = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n";
        let net = read(src_nets, "u0 inv\nu1 inv\n", Some("in in\n"));
        let calls = write_call_file(&net);
        let io = write_io_file(&net);
        let nets = write_net_list_file(&net);
        assert_eq!(nets, src_nets);
        let net2 = read(&nets, &calls, Some(&io));
        assert_eq!(write_call_file(&net2), calls);
        assert_eq!(write_io_file(&net2), io);
        assert_eq!(write_net_list_file(&net2), nets);
    }
}
