//! Shared by the golden-file tests: the byte-exact comparison against
//! `tests/golden/<file>` with its `UPDATE_GOLDEN=1` regeneration
//! switch, and the fully populated `RunReport` exemplar that the run
//! report golden pins and the serve report golden embeds.

#![allow(dead_code)]

use std::path::PathBuf;

use netart_obs::{
    DegradationReport, Metrics, NetReport, NetworkReport, PhaseReport, QualityReport, RunReport,
};

/// Asserts that `rendered` matches `tests/golden/<file>` byte for
/// byte. With `UPDATE_GOLDEN` set in the environment the golden is
/// rewritten instead; `version` names the schema constant to bump
/// when members are renamed or removed.
pub fn assert_golden(file: &str, rendered: &str, version: &str) {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        rendered, expected,
        "JSON schema drifted from tests/golden/{file};\n\
         if the change is intentional, regenerate with UPDATE_GOLDEN=1 and\n\
         bump {version} when members were renamed or removed"
    );
}

/// A run report exercising every member of the schema with fixed
/// values, `null`s included.
pub fn run_report_exemplar() -> RunReport {
    let mut metrics = Metrics::new();
    metrics.inc("route.nets_routed", 2);
    metrics.inc("route.nets_failed", 1);
    metrics.inc("route.nodes_expanded", 190);
    metrics.set("quality.total_bends", 4);
    metrics.observe("phase.route_ns", 1_500);
    metrics.observe("route.net_nodes", 40);
    metrics.observe("route.net_nodes", 150);

    let mut report = RunReport {
        tool: "netart".to_owned(),
        network: NetworkReport {
            modules: 3,
            nets: 3,
            system_terminals: 1,
        },
        phases: vec![
            PhaseReport {
                name: "parse".to_owned(),
                wall_ns: 250,
                ..PhaseReport::default()
            },
            PhaseReport {
                name: "place".to_owned(),
                wall_ns: 1_000,
                ..PhaseReport::default()
            },
            PhaseReport {
                name: "route".to_owned(),
                wall_ns: 1_500,
                alloc_count: Some(12),
                alloc_bytes: Some(2_048),
                peak_bytes: Some(8_192),
                ..PhaseReport::default()
            },
            PhaseReport {
                name: "emit".to_owned(),
                wall_ns: 75,
                ..PhaseReport::default()
            },
        ],
        nets: vec![
            NetReport {
                net: "clk".to_owned(),
                routed: true,
                prerouted: false,
                nodes_expanded: 40,
                over_budget: false,
                retried: false,
                salvage: None,
                ripup_victims: 0,
            },
            NetReport {
                net: "rst".to_owned(),
                routed: true,
                prerouted: false,
                nodes_expanded: 150,
                over_budget: true,
                retried: true,
                salvage: Some("rip_up_retry".to_owned()),
                ripup_victims: 1,
            },
        ],
        degradations: vec![DegradationReport {
            kind: "net_salvaged".to_owned(),
            net: Some("rst".to_owned()),
            stage: Some("rip_up_retry".to_owned()),
            routed: Some(true),
            over_budget: Some(true),
            nodes_expanded: Some(150),
            detail: None,
        }],
        quality: QualityReport {
            routed_nets: 2,
            unrouted_nets: 1,
            total_length: 64,
            total_bends: 4,
            crossovers: 1,
            branch_points: 2,
            bounding_area: 1_200,
            completion: 2.0 / 3.0,
        },
        metrics: metrics.snapshot(),
        is_clean: false,
    };
    // The `route` phase has a `phase.route_ns` histogram, so it alone
    // gains quantiles — the other phases keep `null`s.
    report.attach_phase_quantiles();
    report
}
