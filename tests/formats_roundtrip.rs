//! Round-trip tests for the Appendix A/B/D file formats across the
//! whole pipeline: write a network to its record files, read it back,
//! generate, write the diagram, read it back.

use netart::diagram::escher;
use netart::netlist::doctor::{self, DoctorCode, DoctorFile, InputPolicy};
use netart::netlist::{format, Network};
use netart::Generator;
use netart_workloads::{controller_cluster, life, string_chain};

/// Reads the three Appendix A files back against `net`'s library.
fn reread(net: &Network, nets: &str, calls: &str, io: &str) -> Network {
    doctor::doctor_network(net.library().clone(), nets, calls, Some(io), InputPolicy::Strict)
        .expect("round trip reads")
        .0
}

/// The three Appendix A files of a network.
fn files(net: &Network) -> [String; 3] {
    [
        format::write_net_list_file(net),
        format::write_call_file(net),
        format::write_io_file(net),
    ]
}

#[test]
fn appendix_a_round_trip_on_all_workloads() {
    for net in [string_chain(6), controller_cluster(), life::network()] {
        let [nets, calls, io] = files(&net);
        let restored = reread(&net, &nets, &calls, &io);
        assert_eq!(files(&restored), [nets, calls, io], "write -> read -> write is exact");
        assert_eq!(restored.module_count(), net.module_count());
        assert_eq!(restored.net_count(), net.net_count());
        assert_eq!(restored.system_term_count(), net.system_term_count());
    }
}

#[test]
fn parsed_network_generates_identically() {
    let net = controller_cluster();
    let [nets, calls, io] = files(&net);
    let reparsed = reread(&net, &nets, &calls, &io);

    let a = Generator::strings().generate(net);
    let b = Generator::strings().generate(reparsed);
    assert_eq!(a.report.routed.len(), b.report.routed.len());
    assert_eq!(a.diagram.metrics(), b.diagram.metrics(), "fully deterministic");
}

#[test]
fn quinto_round_trip_for_every_library_template() {
    let net = life::network();
    for (_, tpl) in net.library().iter() {
        let text = format::quinto::write_module(tpl);
        let (back, _) =
            doctor::doctor_module(&text, InputPolicy::Strict).expect("quinto reads its own output");
        assert_eq!(&back, tpl, "template {}", tpl.name());
    }
}

#[test]
fn escher_file_reloads_into_equal_diagram() {
    let out = Generator::strings().generate(string_chain(6));
    let text = escher::write_diagram("fig6_1", &out.diagram);
    assert!(text.starts_with(escher::HEADER));
    let restored = escher::parse_diagram(out.diagram.network().clone(), &text).unwrap();
    for m in out.diagram.network().modules() {
        assert_eq!(
            out.diagram.placement().module(m),
            restored.placement().module(m)
        );
    }
    for n in out.diagram.network().nets() {
        let a = out.diagram.route(n).map(|p| p.length());
        let b = restored.route(n).map(|p| p.length());
        assert_eq!(a, b);
    }
}

#[test]
fn escher_reload_can_seed_rerouting() {
    // The paper's designer loop: dump the diagram, clear one net's
    // route in the file model, reroute only that net.
    let out = Generator::strings().generate(controller_cluster());
    let text = escher::write_diagram("cluster", &out.diagram);
    let mut diagram = escher::parse_diagram(out.diagram.network().clone(), &text).unwrap();
    let some_net = diagram.network().nets().next().unwrap();
    diagram.clear_route(some_net);
    let report = netart::route::Eureka::new(netart::route::RouteConfig::default())
        .route(&mut diagram);
    assert!(report.failed.is_empty(), "{report:?}");
    assert!(diagram.route(some_net).is_some());
    assert!(diagram.check().is_ok(), "{}", diagram.check());
}

mod escher_fixed_point {
    use super::*;
    use proptest::prelude::*;

    const MODULE_SRC: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24 })]

        /// Emit → parse → emit is a fixed point, even for diagrams
        /// generated from defective inputs the doctor repaired under
        /// best-effort: duplicate instances, unknown templates (stub
        /// synthesis), unknown instances/terminals, pin conflicts and
        /// dangling nets.
        #[test]
        fn escher_emit_is_a_fixed_point_over_doctored_networks(
            extra_calls in proptest::collection::vec(
                (0u8..6, prop::sample::select(vec!["inv", "ghost"])),
                0..4,
            ),
            extra_pins in proptest::collection::vec(
                (0u8..3, 0u8..7, prop::sample::select(vec!["a", "y", "z"])),
                0..8,
            ),
        ) {
            let mut calls = String::from("u0 inv\nu1 inv\n");
            for (i, tpl) in &extra_calls {
                calls.push_str(&format!("u{i} {tpl}\n"));
            }
            let mut nets = String::from("n0 u0 y\nn0 u1 a\n");
            for (n, i, t) in &extra_pins {
                if *i == 6 {
                    nets.push_str(&format!("n{n} root {t}\n"));
                } else {
                    nets.push_str(&format!("n{n} u{i} {t}\n"));
                }
            }
            let io = "in in\nin out\n"; // duplicate system terminal

            let mut lib = netart::netlist::Library::new();
            let (tpl, _) = doctor::doctor_module(MODULE_SRC, InputPolicy::Strict)
                .expect("clean module");
            lib.add_template(tpl).expect("unique template");
            let (network, _report) =
                doctor::doctor_network(lib, &nets, &calls, Some(io), InputPolicy::BestEffort)
                    .expect("best-effort always yields a network");

            let out = Generator::strings().generate(network);
            let first = escher::write_diagram("prop", &out.diagram);
            let reparsed = escher::parse_diagram(out.diagram.network().clone(), &first)
                .expect("emitted diagram re-parses");
            let second = escher::write_diagram("prop", &reparsed);
            prop_assert_eq!(first, second);
        }
    }
}

#[test]
fn malformed_inputs_are_rejected_with_line_numbers() {
    let net = string_chain(2);
    let e = doctor::doctor_network(
        net.library().clone(),
        "n0 u0 y\nn0 u1 a\n",
        "u0 buf\nmalformed\n",
        None,
        InputPolicy::Strict,
    )
    .unwrap_err();
    let d = &e.diagnostics[0];
    assert_eq!((d.code, d.file, d.line), (DoctorCode::MalformedRecord, DoctorFile::Calls, 2));

    let e = escher::parse_diagram(net, "#WRONG-HEADER\n").unwrap_err();
    assert_eq!(e.line, 1);
}
