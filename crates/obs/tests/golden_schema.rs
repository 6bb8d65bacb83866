//! Golden-file test pinning the `RunReport` JSON schema.
//!
//! The rendered report for a fully-populated, fixed-value `RunReport`
//! must match `tests/golden/run_report.json` byte for byte. Any shape
//! change — a renamed member, a reordered key, a different number
//! rendering — shows up as a diff here. Additive changes regenerate the
//! golden with `UPDATE_GOLDEN=1 cargo test -p netart-obs --test
//! golden_schema`; renames and removals also require bumping
//! [`netart_obs::SCHEMA_VERSION`].

mod support;

use netart_obs::RunReport;
use support::run_report_exemplar as exemplar;

#[test]
fn run_report_matches_golden() {
    support::assert_golden(
        "run_report.json",
        &exemplar().to_json_string(),
        "SCHEMA_VERSION",
    );
}

#[test]
fn golden_parses_and_roundtrips_key_facts() {
    // Independent of the byte-level pin: the rendered tree reports the
    // same facts the struct holds.
    let r = exemplar();
    let j = r.to_json();
    assert_eq!(
        j.get("schema_version"),
        Some(&netart_obs::Json::Uint(u64::from(netart_obs::SCHEMA_VERSION)))
    );
    let phases = match j.get("phases") {
        Some(netart_obs::Json::Arr(p)) => p,
        other => panic!("phases not an array: {other:?}"),
    };
    assert_eq!(phases.len(), 4);
    assert_eq!(
        j.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("route.nets_routed")),
        Some(&netart_obs::Json::Uint(2))
    );
}

#[test]
fn report_roundtrips_through_json() {
    let original = exemplar();
    let text = original.to_json_string();
    let parsed = netart_obs::Json::parse(&text).expect("rendered report parses");
    let read_back = RunReport::from_json(&parsed).expect("report reads back");
    assert_eq!(read_back, original);
    // And the roundtrip is byte-stable, which is what `report diff`
    // relies on when reading committed baselines.
    assert_eq!(read_back.to_json_string(), text);
}

#[test]
fn normalized_report_is_free_of_wall_clock() {
    let normalized = exemplar().normalized();
    for phase in &normalized.phases {
        assert_eq!(phase.wall_ns, 0);
        assert_eq!(phase.p50_ns, None);
    }
    assert!(
        normalized.metrics.histograms.keys().all(|k| !k.ends_with("_ns")),
        "timing histograms must be dropped: {:?}",
        normalized.metrics.histograms.keys().collect::<Vec<_>>()
    );
    // Deterministic content survives.
    assert!(normalized.metrics.histograms.contains_key("route.net_nodes"));
    assert_eq!(normalized.nets.len(), 2);
    assert_eq!(normalized.quality.total_bends, 4);
}
