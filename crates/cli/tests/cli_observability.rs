//! Binary-level observability contract: `--trace-out` emits a
//! structurally valid Chrome trace-event document without disturbing
//! the run's other outputs, stdout-claim conflicts fail loudly, and
//! `netart report diff` exits 0 on a self-diff and 3 on a regression.
//!
//! Everything here shells out to the built binaries
//! (`CARGO_BIN_EXE_*`), so each case gets a fresh process and its own
//! global subscriber slot — the in-process tests in `commands.rs`
//! cannot cover that.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use netart_obs::Json;

const MODULE_SRC: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";
const NET_SRC: &str = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n";
const CALL_SRC: &str = "u0 inv\nu1 inv\n";
const IO_SRC: &str = "in in\n";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netart-obscli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_inputs(dir: &Path) -> (String, String, String, String) {
    let lib = dir.join("lib");
    fs::create_dir_all(&lib).unwrap();
    fs::write(lib.join("inv.qto"), MODULE_SRC).unwrap();
    let nets = dir.join("design.net");
    fs::write(&nets, NET_SRC).unwrap();
    let calls = dir.join("design.call");
    fs::write(&calls, CALL_SRC).unwrap();
    let io = dir.join("design.io");
    fs::write(&io, IO_SRC).unwrap();
    (
        lib.to_string_lossy().into_owned(),
        nets.to_string_lossy().into_owned(),
        calls.to_string_lossy().into_owned(),
        io.to_string_lossy().into_owned(),
    )
}

fn netart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netart"))
        .args(args)
        .output()
        .expect("netart spawns")
}

fn eureka(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eureka"))
        .args(args)
        .output()
        .expect("eureka spawns")
}

fn pablo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pablo"))
        .args(args)
        .output()
        .expect("pablo spawns")
}

/// Asserts `text` is a trace-event array whose members carry the
/// required fields and whose `B`/`E` events balance per thread track.
/// Returns the span names seen opening.
fn check_trace(text: &str) -> Vec<String> {
    let doc = Json::parse(text).expect("trace is valid JSON");
    let events = doc.as_arr().expect("trace is an array");
    assert!(!events.is_empty(), "trace recorded nothing");
    let mut opened = Vec::new();
    let mut stacks = std::collections::BTreeMap::<u64, Vec<String>>::new();
    for e in events {
        for member in ["name", "ph", "ts", "pid", "tid"] {
            assert!(e.get(member).is_some(), "member {member} missing in {e:?}");
        }
        let name = e.get("name").and_then(Json::as_str).unwrap().to_owned();
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        match e.get("ph").and_then(Json::as_str).unwrap() {
            "B" => {
                opened.push(name.clone());
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let top = stacks.entry(tid).or_default().pop();
                assert_eq!(top.as_deref(), Some(name.as_str()), "E matches open B");
            }
            "i" => {}
            other => panic!("unknown phase {other}"),
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    opened
}

#[test]
fn netart_trace_out_is_valid_and_covers_the_pipeline() {
    let dir = scratch("trace");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    let trace = dir.join("trace.json");
    let run = netart(&[
        "-L",
        &lib,
        "-o",
        &out,
        "--trace-out",
        trace.to_str().unwrap(),
        &nets,
        &calls,
        &io,
    ]);
    assert!(run.status.success(), "{:?}", run);
    let text = fs::read_to_string(&trace).expect("trace written");
    let opened = check_trace(&text);
    for span in ["netart.place", "netart.route", "eureka.net"] {
        assert!(
            opened.iter().any(|n| n == span),
            "span {span} missing from trace: {opened:?}"
        );
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn eureka_trace_out_shows_per_net_spans() {
    let dir = scratch("etrace");
    let (lib, nets, calls, io) = write_inputs(&dir);
    // Place without routing (pablo), then route under eureka with the
    // trace recorder on — a prerouted diagram would give the router
    // nothing to do and no per-net spans.
    let placed = dir.join("placed").to_string_lossy().into_owned();
    let run = pablo(&["-L", &lib, "-o", &placed, &nets, &calls, &io]);
    assert!(run.status.success(), "{:?}", run);
    let esc = dir.join("placed.esc").to_string_lossy().into_owned();
    let routed = dir.join("routed").to_string_lossy().into_owned();
    let trace = dir.join("eureka-trace.json");
    let run = eureka(&[
        "-L",
        &lib,
        "--diagram",
        &esc,
        "-o",
        &routed,
        "--trace-out",
        trace.to_str().unwrap(),
        &nets,
        &calls,
        &io,
    ]);
    assert!(run.status.success(), "{:?}", run);
    let opened = check_trace(&fs::read_to_string(&trace).expect("trace written"));
    assert!(
        opened.iter().any(|n| n == "eureka.net"),
        "per-net router spans missing: {opened:?}"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn trace_flag_leaves_other_outputs_byte_identical() {
    // Same directory and output name for both runs: the diagram
    // header embeds the output path, so the only allowed difference
    // is the presence of the trace file itself.
    let dir = scratch("identical");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    let trace = dir.join("trace.json").to_string_lossy().into_owned();

    let plain = netart(&["-L", &lib, "-o", &out, &nets, &calls, &io]);
    assert!(plain.status.success(), "{:?}", plain);
    let plain_esc = fs::read(dir.join("out.esc")).expect("diagram written");
    let plain_svg = fs::read(dir.join("out.svg")).expect("svg written");

    let traced = netart(&[
        "-L",
        &lib,
        "-o",
        &out,
        "--trace-out",
        &trace,
        &nets,
        &calls,
        &io,
    ]);
    assert!(traced.status.success(), "{:?}", traced);
    let traced_esc = fs::read(dir.join("out.esc")).expect("diagram written");
    let traced_svg = fs::read(dir.join("out.svg")).expect("svg written");

    // The summary prints wall times, so only the artifacts can be
    // compared byte-for-byte.
    assert_eq!(plain_esc, traced_esc, "--trace-out changed the emitted diagram");
    assert_eq!(plain_svg, traced_svg, "--trace-out changed the emitted SVG");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn trace_to_stdout_moves_summary_to_stderr() {
    let dir = scratch("stdout");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    let run = netart(&[
        "-L", &lib, "-o", &out, "--trace-out", "-", &nets, &calls, &io,
    ]);
    assert!(run.status.success(), "{:?}", run);
    let stdout = String::from_utf8(run.stdout).expect("stdout is UTF-8");
    check_trace(&stdout);
    assert!(
        !String::from_utf8_lossy(&run.stderr).is_empty(),
        "summary should move to stderr"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn double_stdout_claim_fails_loudly() {
    let dir = scratch("claim");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let run = netart(&[
        "-L",
        &lib,
        "--report-json",
        "-",
        "--trace-out",
        "-",
        &nets,
        &calls,
        &io,
    ]);
    assert_eq!(run.status.code(), Some(1), "{:?}", run);
    assert!(
        String::from_utf8_lossy(&run.stderr).contains("claim stdout"),
        "{:?}",
        run
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn report_self_diff_exits_zero() {
    let dir = scratch("selfdiff");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    let report = dir.join("report.json").to_string_lossy().into_owned();
    let run = netart(&[
        "-L",
        &lib,
        "-o",
        &out,
        "--report-json",
        &report,
        &nets,
        &calls,
        &io,
    ]);
    assert!(run.status.success(), "{:?}", run);
    let diff = netart(&["report", "diff", &report, &report]);
    assert!(diff.status.success(), "{:?}", diff);
    assert!(
        String::from_utf8_lossy(&diff.stdout).contains("ok: no regressions"),
        "{:?}",
        diff
    );
    let _ = fs::remove_dir_all(dir);
}

/// The acceptance scenario: a budget-exhaust fault injected into the
/// router makes the current run objectively worse than the clean
/// baseline, and the differ must exit 3 naming the offending metrics.
/// Needs the fault-injection feature compiled into the binary.
#[cfg(feature = "fault-injection")]
#[test]
fn report_diff_exits_three_on_injected_regression() {
    let dir = scratch("regress");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    let baseline = dir.join("baseline.json").to_string_lossy().into_owned();
    let run = netart(&[
        "-L",
        &lib,
        "-o",
        &out,
        "--report-json",
        &baseline,
        &nets,
        &calls,
        &io,
    ]);
    assert!(run.status.success(), "{:?}", run);

    let hurt = dir.join("hurt").to_string_lossy().into_owned();
    let current = dir.join("current.json").to_string_lossy().into_owned();
    let run = netart(&[
        "-L",
        &lib,
        "-o",
        &hurt,
        "--report-json",
        &current,
        "--input-policy",
        "repair",
        "--inject",
        "route.net:1:budget-exhaust",
        &nets,
        &calls,
        &io,
    ]);
    assert_eq!(run.status.code(), Some(2), "injected run degrades: {run:?}");

    let diff_json = dir.join("diff.json");
    let diff = netart(&[
        "report",
        "diff",
        &baseline,
        &current,
        "--diff-json",
        diff_json.to_str().unwrap(),
    ]);
    assert_eq!(diff.status.code(), Some(3), "{:?}", diff);
    let text = String::from_utf8_lossy(&diff.stdout);
    assert!(text.contains("REGRESSION:"), "{text}");
    assert!(
        text.contains("over_budget") || text.contains("degradations."),
        "offending metric not named: {text}"
    );
    let doc = Json::parse(&fs::read_to_string(&diff_json).expect("diff written"))
        .expect("diff JSON parses");
    assert_eq!(doc.get("regression"), Some(&Json::Bool(true)));
    assert!(!doc.get("entries").and_then(Json::as_arr).unwrap().is_empty());
    let _ = fs::remove_dir_all(dir);
}

/// The profile acceptance criterion: `netart profile --heat-json`
/// emits a schema-versioned document built purely from deterministic
/// counters, so two runs over the same design must be bit-identical
/// and a `report diff` of the pair must be a clean self-diff.
#[test]
fn profile_heat_json_is_bit_identical_across_runs() {
    let dir = scratch("profile");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let heat_a = dir.join("heat-a.json").to_string_lossy().into_owned();
    let heat_b = dir.join("heat-b.json").to_string_lossy().into_owned();
    for heat in [&heat_a, &heat_b] {
        let run = netart(&[
            "profile", "-L", &lib, "--grid", "8", "--heat-json", heat, &nets, &calls, &io,
        ]);
        assert!(run.status.success(), "{:?}", run);
        let map = String::from_utf8_lossy(&run.stdout);
        assert!(map.starts_with("+--------+\n"), "ASCII border missing: {map}");
        assert!(map.contains("expansions (hottest cell"), "legend missing: {map}");
    }

    let bytes_a = fs::read(&heat_a).unwrap();
    let bytes_b = fs::read(&heat_b).unwrap();
    assert_eq!(bytes_a, bytes_b, "heat-map JSON differs between identical runs");

    let doc = Json::parse(std::str::from_utf8(&bytes_a).unwrap()).expect("heat JSON parses");
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("profile"));
    for member in ["tool", "cols", "rows", "bounds", "totals", "cells"] {
        assert!(doc.get(member).is_some(), "member {member} missing");
    }
    let grid = ["cols", "rows"].map(|member| doc.get(member).and_then(Json::as_u64));
    assert_eq!(grid, [Some(8), Some(8)], "--grid 8 sizes both axes");
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells array");
    let cell_sum: u64 = cells
        .iter()
        .map(|c| c.get("expansions").and_then(Json::as_u64).expect("cell expansions"))
        .sum();
    let totals = doc.get("totals").and_then(|t| t.get("expansions")).and_then(Json::as_u64);
    assert_eq!(Some(cell_sum), totals, "cell expansions add up to the total");

    let diff = netart(&["report", "diff", &heat_a, &heat_b]);
    assert!(diff.status.success(), "profile self-diff regressed: {diff:?}");
    assert!(
        String::from_utf8_lossy(&diff.stdout).contains("ok: no regressions"),
        "{:?}",
        diff
    );
    let _ = fs::remove_dir_all(dir);
}
