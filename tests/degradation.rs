//! Pipeline-hardening integration tests: tight routing budgets on
//! congested networks must degrade gracefully — salvage, Lee fallback,
//! or ghost wires — and never panic or corrupt the diagram.

use std::time::Duration;

use netart::route::{Budget, SalvageStep};
use netart::{Generator, Routing};
use netart_workloads::{random_network, string_chain, RandomSpec};

/// Every net must end the run either routed or carrying a ghost wire,
/// and the structural check must hold for the routed subset.
fn assert_degraded_but_sound(outcome: &netart::Outcome) {
    for n in outcome.diagram.unrouted() {
        assert!(
            outcome.diagram.ghost(n).is_some(),
            "unrouted net {n:?} has no ghost wire"
        );
    }
    let check = outcome.diagram.check();
    assert!(check.is_ok(), "routed subset must stay sound: {check}");
    // The report and the run report's degradations agree.
    let report = &outcome.report;
    let degradations = outcome.run_report("t").degradations;
    for &n in &report.salvaged {
        let name = outcome.diagram.network().net(n).name();
        assert!(
            degradations
                .iter()
                .any(|d| d.kind == "net_salvaged" && d.net.as_deref() == Some(name)),
            "salvaged net {n:?} missing from degradations"
        );
    }
    for &n in &report.failed {
        assert!(
            !report.routed.contains(&n),
            "net {n:?} both routed and failed"
        );
    }
}

#[test]
fn tight_budget_on_congested_network_degrades_gracefully() {
    let network = random_network(&RandomSpec::new(16, 28).with_seed(11).with_max_fanout(5));
    let nets = network.net_count();
    let budget = Budget::new()
        .with_node_limit(6)
        .with_time_limit(Duration::from_millis(50));
    let outcome = Generator::strings()
        .with_routing(Routing::new().with_budget(budget))
        .generate(network);

    assert_degraded_but_sound(&outcome);
    // A 6-node budget cannot route a congested network cleanly: the
    // salvage cascade must have fired, and every fallback is recorded.
    assert!(
        !outcome.run_report("t").degradations.is_empty(),
        "expected degradations under a 6-node budget, report: {:?}",
        outcome.report
    );
    assert!(!outcome.is_clean());
    assert_eq!(
        outcome.report.routed.len() + outcome.report.failed.len(),
        nets,
        "every net accounted for"
    );
}

#[test]
fn one_node_budget_never_panics_and_ghosts_carry_the_rest() {
    let network = string_chain(12);
    let outcome = Generator::strings()
        .with_routing(Routing::new().with_budget(Budget::new().with_node_limit(1)))
        .generate(network);
    assert_degraded_but_sound(&outcome);
    // Whatever the cascade managed, the output shows every connection:
    // real wire or ghost line.
    for n in outcome.diagram.network().nets() {
        assert!(
            outcome.diagram.route(n).is_some() || outcome.diagram.ghost(n).is_some(),
            "net {n:?} vanished from the output"
        );
    }
}

#[test]
fn salvage_steps_are_reported_in_cascade_order() {
    let network = random_network(&RandomSpec::new(16, 28).with_seed(11).with_max_fanout(5));
    let outcome = Generator::strings()
        .with_routing(Routing::new().with_budget(Budget::new().with_node_limit(6)))
        .generate(network);
    for &n in &outcome.report.salvaged {
        let record = outcome.report.net_stats[n.index()];
        match record.salvage.expect("a salvaged net records its step") {
            // A rip-up or Lee salvage means the net really routed.
            SalvageStep::RipUpRetry | SalvageStep::LeeFallback => {
                assert!(
                    outcome.diagram.route(n).is_some(),
                    "{record:?} claims a route that does not exist"
                );
                assert!(outcome.report.routed.contains(&n));
            }
            SalvageStep::GhostWire => {
                assert!(outcome.diagram.route(n).is_none());
                assert!(
                    outcome.diagram.ghost(n).is_some(),
                    "{record:?} claims a ghost that does not exist"
                );
                assert!(outcome.report.failed.contains(&n));
            }
        }
    }
}

#[test]
fn disabling_salvage_leaves_failures_bare() {
    let network = random_network(&RandomSpec::new(16, 28).with_seed(11).with_max_fanout(5));
    let outcome = Generator::strings()
        .with_routing(
            Routing::new()
                .with_budget(Budget::new().with_node_limit(6))
                .without_salvage(),
        )
        .generate(network);
    assert!(outcome.report.salvaged.is_empty());
    let degradations = outcome.run_report("t").degradations;
    for &n in &outcome.report.failed {
        assert!(
            outcome.diagram.ghost(n).is_none(),
            "no ghosts without salvage"
        );
        let name = outcome.diagram.network().net(n).name();
        assert!(degradations
            .iter()
            .any(|d| d.kind == "net_unrouted" && d.net.as_deref() == Some(name)));
    }
}

#[test]
fn unlimited_budget_stays_clean_on_reference_workloads() {
    for network in [string_chain(12), netart_workloads::controller_cluster()] {
        let outcome = Generator::strings().generate(network);
        assert!(outcome.is_clean(), "{:?}", outcome.degradations);
        assert!(outcome.report.failed.is_empty());
        assert!(outcome.report.salvaged.is_empty());
    }
}
