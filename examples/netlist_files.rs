//! The paper's file-based workflow (Appendices A, B and D): module
//! descriptions go through *quinto* into the library, the network
//! arrives as net-list / call / io files, and the finished diagram is
//! written in the ESCHER record format.
//!
//! ```sh
//! cargo run --example netlist_files
//! ```

use std::error::Error;

use netart::diagram::escher;
use netart::netlist::doctor::{doctor_module, doctor_network, InputPolicy};
use netart::netlist::Library;
use netart::Generator;

/// Appendix B module descriptions (coordinates on the 10× editor grid).
const MODULES: &[&str] = &[
    "module nand2 40 40\nin a 0 10\nin b 0 30\nout y 40 20\n",
    "module dff 40 60\nin d 0 30\nin ck 20 0\nout q 40 30\n",
    "module obuf 30 20\nin a 0 10\nout y 30 10\n",
];

/// Appendix A call-file: instance → template.
const CALL_FILE: &str = "\
g0 nand2
g1 nand2
ff0 dff
ff1 dff
out_drv0 obuf
";

/// Appendix A io-file: system terminal → type.
const IO_FILE: &str = "\
set in
rst in
q out
";

/// Appendix A net-list-file: net instance terminal (`root` = system
/// terminal).
const NET_LIST: &str = "\
n_set root set
n_set g0 a
n_rst root rst
n_rst g1 b
x0 g0 y
x0 g1 a
x0 ff0 d
x1 g1 y
x1 g0 b
x1 ff1 d
q0 ff0 q
q0 out_drv0 a
q1 ff1 q
q1 ff0 ck
q1 ff1 ck
n_q out_drv0 y
n_q root q
";

fn main() -> Result<(), Box<dyn Error>> {
    // quinto: build the module library from the descriptions.
    let mut lib = Library::new();
    for src in MODULES {
        let (template, _) = doctor_module(src, InputPolicy::Strict)?;
        println!(
            "quinto: added `{}` ({}x{}, {} terminals)",
            template.name(),
            template.size().0,
            template.size().1,
            template.terminal_count()
        );
        lib.add_template(template)?;
    }

    // pablo's input: the three Appendix A files.
    let (network, _) =
        doctor_network(lib, NET_LIST, CALL_FILE, Some(IO_FILE), InputPolicy::Strict)?;
    println!(
        "parsed network: {} modules, {} nets, {} system terminals",
        network.module_count(),
        network.net_count(),
        network.system_term_count()
    );

    // Generate and write the ESCHER diagram file.
    let outcome = Generator::strings().generate(network);
    println!(
        "routed {}/{} nets; {}",
        outcome.report.routed.len(),
        outcome.report.routed.len() + outcome.report.failed.len(),
        outcome.diagram.metrics()
    );
    let text = escher::write_diagram("latch_pair", &outcome.diagram);
    std::fs::write("latch_pair.esc", &text)?;
    println!("wrote latch_pair.esc ({} records)", text.lines().count());

    // Round-trip proof: the file reloads into an identical diagram.
    let reloaded = escher::parse_diagram(outcome.diagram.network().clone(), &text)?;
    assert_eq!(reloaded.metrics(), outcome.diagram.metrics());
    println!("reloaded latch_pair.esc -> metrics identical");
    Ok(())
}
