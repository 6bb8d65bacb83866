//! Integration suite for `netart stress`: the memory-governance
//! harness must hold its exit-code contract from the outside — exit 0
//! when a generated workload ingests (and routes) under budget, exit 2
//! with an `ND015` diagnostic naming the exhausted stage and its byte
//! counts when the governor refuses, exit 1 when a harness assertion
//! (such as `--rss-limit`) fails — and its generators must be
//! byte-deterministic per `(kind, modules, seed)`.

use std::process::{Command, Output};

fn stress(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netart"))
        .arg("stress")
        .args(args)
        .output()
        .expect("netart stress spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn under_budget_parse_exits_zero_with_a_summary() {
    let out = stress(&["--modules", "400", "--phase", "parse"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("modules"), "{text}");
    assert!(text.contains("network budget"), "{text}");
    assert!(!text.contains("input budget"), "{text}");
}

#[test]
fn place_phase_reports_the_placement_time_alone() {
    let out = stress(&["--modules", "100", "--phase", "place"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("; placed in "), "{text}");
    assert!(!text.contains("routed"), "{text}");
}

#[test]
fn route_phase_reports_place_and_route_times_apart() {
    let out = stress(&["--modules", "16", "--phase", "route"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("; placed in "), "{text}");
    assert!(text.contains(" nets in "), "{text}");
}

#[test]
fn over_budget_refusal_exits_two_with_nd015_and_byte_counts() {
    let out = stress(&[
        "--modules",
        "20000",
        "--phase",
        "parse",
        "--max-network-bytes",
        "64k",
    ]);
    assert_eq!(out.status.code(), Some(2), "a governed refusal is degraded");
    let text = stdout(&out);
    assert!(text.contains("ND015"), "{text}");
    assert!(text.contains("byte"), "the diagnostic carries counts: {text}");
    assert!(
        text.contains("memory budget exhausted"),
        "the diagnostic names the exhausted stage: {text}"
    );
}

#[test]
fn every_generator_kind_parses_under_no_budget() {
    for kind in ["cell-array", "hierarchy", "datapath", "fanout", "amplify"] {
        let out = stress(&["--workload", kind, "--modules", "120", "--phase", "parse"]);
        assert_eq!(out.status.code(), Some(0), "{kind}: {}", stderr(&out));
    }
}

#[test]
fn adversarial_tails_fail_closed_not_open() {
    for adversary in ["truncate", "garbage"] {
        let out = stress(&[
            "--modules",
            "200",
            "--adversary",
            adversary,
            "--phase",
            "parse",
        ]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{adversary}: a mangled tail is a diagnosed rejection"
        );
        let text = stderr(&out);
        assert!(text.contains("ND0"), "{adversary} is diagnosed: {text}");
    }
}

/// The summary up to the wall-clock part: workload name, module, net
/// and byte counts — everything that must be seed-deterministic.
fn stable_prefix(summary: &str) -> &str {
    summary.split("; parsed").next().expect("split never empties")
}

#[test]
fn summaries_are_deterministic_per_seed() {
    let args = ["--workload", "hierarchy", "--modules", "150", "--seed", "9", "--phase", "parse"];
    let first = stress(&args);
    let second = stress(&args);
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));
    let (a, b) = (stdout(&first), stdout(&second));
    assert!(a.contains("; parsed"), "{a}");
    assert_eq!(
        stable_prefix(&a),
        stable_prefix(&b),
        "same seed, same workload shape"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn rss_limit_breach_is_a_harness_failure() {
    let out = stress(&["--modules", "400", "--phase", "parse", "--rss-limit", "1"]);
    assert_eq!(out.status.code(), Some(1), "a breached limit fails outright");
    assert!(stderr(&out).contains("rss-limit"), "{}", stderr(&out));
}
