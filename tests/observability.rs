//! Observability guarantees: metrics determinism and run-report
//! coherence over full pipeline runs.
//!
//! Counters are the deterministic half of a run report's metrics — two
//! runs of the same input must produce identical counter maps, while
//! histograms (which absorb wall-clock observations) may differ. The
//! run report must agree with the outcome it was derived from.

use netart::place::PlaceConfig;
use netart::route::RouteConfig;
use netart::obs::MetricsSnapshot;
use netart::{Generator, Outcome};
use netart_workloads::{controller_cluster, life, random_network, string_chain, RandomSpec};

/// The metrics of a run, as its run report derives them.
fn metrics(outcome: &Outcome) -> MetricsSnapshot {
    outcome.run_report("netart").metrics
}

#[test]
fn counters_are_identical_across_reruns() {
    let run = |seed: u64| {
        let spec = RandomSpec::new(12, 18).with_seed(seed).with_max_fanout(4);
        Generator::new()
            .with_placing(PlaceConfig::strings())
            .with_routing(RouteConfig::new().with_margin(3))
            .generate(random_network(&spec))
    };
    for seed in [0, 3, 7] {
        let a = metrics(&run(seed));
        let b = metrics(&run(seed));
        assert_eq!(
            a.counters, b.counters,
            "seed {seed}: counter snapshots differ between identical runs"
        );
        // The timing histograms exist in both runs even when their
        // observed values differ.
        assert_eq!(
            a.histograms.keys().collect::<Vec<_>>(),
            b.histograms.keys().collect::<Vec<_>>(),
            "seed {seed}: histogram sets differ between identical runs"
        );
    }
}

#[test]
fn counters_are_identical_across_paper_workload_reruns() {
    let run = || Generator::new().generate(controller_cluster());
    assert_eq!(metrics(&run()).counters, metrics(&run()).counters);

    let route_life = || {
        let network = life::network();
        let hand = life::hand_placement(&network);
        Generator::new()
            .route_only(network, hand)
            .expect("hand placement is complete")
    };
    assert_eq!(metrics(&route_life()).counters, metrics(&route_life()).counters);
}

#[test]
fn route_only_counters_and_reports_are_deterministic() {
    // The eureka path: routing an already-placed diagram must be just
    // as deterministic as the full pipeline — identical counter maps
    // and byte-identical normalized run reports across reruns.
    let run = || {
        let network = life::network();
        let hand = life::hand_placement(&network);
        Generator::new()
            .with_routing(RouteConfig::new().with_margin(4))
            .route_only(network, hand)
            .expect("hand placement is complete")
    };
    let a = run();
    let b = run();
    assert_eq!(
        metrics(&a).counters,
        metrics(&b).counters,
        "route-only counter snapshots differ between identical runs"
    );
    assert_eq!(
        a.run_report("eureka").normalized().to_json_string(),
        b.run_report("eureka").normalized().to_json_string(),
        "route-only normalized run reports are not byte-identical"
    );
}

#[test]
fn run_report_agrees_with_outcome() {
    let network = string_chain(5);
    let nets = network.net_count();
    let outcome = Generator::new()
        .with_placing(PlaceConfig::strings().with_max_box_size(5))
        .generate(network);
    let report = outcome.run_report("netart");

    assert_eq!(report.tool, "netart");
    assert_eq!(report.network.nets, nets);
    assert_eq!(report.nets.len(), nets, "one NetReport per net");
    assert_eq!(report.quality.routed_nets, outcome.report.routed.len());
    assert_eq!(report.is_clean, outcome.is_clean());
    assert_eq!(
        report.is_clean,
        report.degradations.is_empty(),
        "is_clean must mirror the degradation list"
    );

    // Both pipeline phases ran and took measurable time.
    for phase in ["place", "route"] {
        let ns = report.phase_ns(phase).unwrap_or(0);
        assert!(ns > 0, "phase {phase} reported zero wall time");
    }

    // Per-net effort rolls up to the aggregate counter.
    let per_net: u64 = report.nets.iter().map(|n| n.nodes_expanded).sum();
    assert_eq!(
        per_net,
        report.metrics.counters["route.nodes_expanded"],
        "per-net nodes_expanded must sum to the aggregate counter"
    );
    assert!(per_net > 0, "router expanded no nodes");
    assert_eq!(
        report.metrics.counters["route.nets_routed"],
        outcome.report.routed.len() as u64
    );
}

#[test]
fn route_only_report_has_no_place_phase() {
    let network = life::network();
    let hand = life::hand_placement(&network);
    let outcome = Generator::new()
        .route_only(network, hand)
        .expect("hand placement is complete");
    let report = outcome.run_report("eureka");
    assert_eq!(report.phase_ns("place"), None, "routing-only run");
    assert!(report.phase_ns("route").unwrap_or(0) > 0);
    assert!(!report.metrics.histograms.contains_key("phase.place_ns"));
}
