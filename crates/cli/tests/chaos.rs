//! Deterministic chaos suite: sweeps injected faults (site × kind)
//! through the full `netart` pipeline under `--input-policy repair`
//! and asserts the robustness invariants:
//!
//! 1. no panic escapes a phase boundary,
//! 2. the run degrades (exit 2) instead of failing (exit 1),
//! 3. the armed fault actually fired at the expected site,
//! 4. the fault surfaces as a degradation in the machine-readable
//!    run report (`is_clean: false`),
//! 5. the emitted ESCHER diagram re-parses and its routed subset
//!    passes the structural checker.
//!
//! Only compiled with `--features fault-injection` (a `required-features`
//! test target); the default build carries no fault-point overhead.

mod common;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;

use netart::diagram::escher;
use netart::netlist::doctor::{self, InputPolicy};
use netart::netlist::Library;
use netart::obs::{BatchManifest, JobStatus, Json, RunReport, ServeReport};
use netart_cli::{run_batch, run_netart};

/// Serialises cases: the fault registry is process-global.
static GUARD: Mutex<()> = Mutex::new(());

const MODULE_SRC: &str = "module inv 40 20\nin a 0 10\nout y 40 10\n";
const NET_SRC: &str = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n";
const CALL_SRC: &str = "u0 inv\nu1 inv\n";
const IO_SRC: &str = "in in\n";

const KINDS: [&str; 4] = ["panic", "error", "budget-exhaust", "garbage-output"];

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netart-chaos-{tag}-{}", std::process::id()));
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

/// The pristine fixture network, for re-parsing the emitted diagram.
fn reference_network() -> netart::netlist::Network {
    let mut lib = Library::new();
    let (template, _) =
        doctor::doctor_module(MODULE_SRC, InputPolicy::Strict).expect("clean module");
    lib.add_template(template).expect("unique template");
    doctor::doctor_network(lib, NET_SRC, CALL_SRC, Some(IO_SRC), InputPolicy::Strict)
        .expect("clean fixture")
        .0
}

/// Runs one `netart` invocation with `spec` armed and asserts every
/// chaos invariant. `site` is the site expected to have fired. Returns
/// the run report the invocation wrote.
fn case(spec: &str, site: &str) -> RunReport {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    netart_fault::disarm_all();
    let tag = spec.replace([':', '.', ','], "-");
    let dir = scratch(&tag);
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    let report = dir.join("report.json").to_string_lossy().into_owned();

    let result = catch_unwind(AssertUnwindSafe(|| {
        run_netart(&argv(&[
            "--input-policy",
            "repair",
            "--inject",
            spec,
            "--report-json",
            &report,
            "-L",
            &lib,
            "-o",
            &out,
            &nets,
            &calls,
            &io,
        ]))
    }));
    // 1. No panic escapes a phase boundary.
    let run = result.unwrap_or_else(|_| panic!("{spec}: panic escaped the pipeline"));
    // 2. Under `repair` an injected fault degrades the run, never
    //    fails it outright.
    let run = run.unwrap_or_else(|e| panic!("{spec}: hard failure `{e}`"));
    // 3. The armed fault fired at the expected site.
    let fired = netart_fault::fired();
    assert!(
        fired.iter().any(|s| s.starts_with(site)),
        "{spec}: site `{site}` never fired (fired: {fired:?})"
    );
    // 4. ... and surfaced as a degradation in the run report.
    assert!(run.degraded, "{spec}: fault fired but the run claims clean");
    assert_eq!(run.exit_code(), ExitCode::from(2), "{spec}");
    let doc = fs::read_to_string(&report).expect("report written");
    assert!(doc.contains("\"is_clean\": false"), "{spec}: {doc}");
    assert!(
        doc.contains("\"kind\""),
        "{spec}: no degradation records: {doc}"
    );
    // 5. The emitted diagram re-parses and its routed subset passes
    //    the structural checker.
    netart_fault::disarm_all();
    let esc = fs::read_to_string(dir.join("out.esc")).expect("diagram written");
    let diagram = escher::parse_diagram(reference_network(), &esc)
        .unwrap_or_else(|e| panic!("{spec}: emitted diagram does not re-parse: {e}"));
    let check = diagram.check();
    assert!(check.is_ok(), "{spec}: structural check failed");
    let _ = fs::remove_dir_all(dir);
    RunReport::from_json(&Json::parse(&doc).expect("report is JSON")).expect("report reads back")
}

#[test]
fn chaos_parse_sites() {
    for kind in KINDS {
        case(&format!("parse.network:1:{kind}"), "parse.network");
        case(&format!("parse.module:1:{kind}"), "parse.module");
        // The memory governor's charge point: a fired fault simulates
        // an allocation refusal (ND015) even under an unlimited
        // budget, and recovery retries against the burned-out site.
        case(&format!("parse.alloc:1:{kind}"), "parse.alloc");
    }
}

#[test]
fn chaos_place_sites() {
    for site in [
        "place.partition",
        "place.module_place",
        "place.cluster",
        "place.gravity",
        "place.terminal_place",
    ] {
        for kind in KINDS {
            case(&format!("{site}:1:{kind}"), site);
        }
    }
}

#[test]
fn chaos_route_net_site() {
    for kind in KINDS {
        let report = case(&format!("route.net:1:{kind}"), "route.net");
        if kind == "panic" {
            // The aborted router leaves no per-net records: the phase
            // recovery comes first, then every net unrouted with null
            // effort.
            assert!(!report.is_clean);
            let (aborted, nets) = report.degradations.split_first().expect("degradations");
            assert_eq!(aborted.kind, "routing_aborted");
            let network = reference_network();
            let names: Vec<&str> = network.nets().map(|n| network.net(n).name()).collect();
            assert_eq!(nets.len(), names.len(), "{:?}", report.degradations);
            for (d, name) in nets.iter().zip(names) {
                assert_eq!(d.kind, "net_unrouted");
                assert_eq!(d.net.as_deref(), Some(name));
                assert_eq!((d.over_budget, d.nodes_expanded), (None, None), "{d:?}");
            }
        }
    }
}

#[test]
fn chaos_salvage_sites() {
    // The salvage stages are unreachable on a healthy run, so compose:
    // starve the net's first-pass budget to force it into the cascade,
    // then fault the stage under test.
    for kind in KINDS {
        case(
            &format!("route.net:1:budget-exhaust,route.salvage.ripup:1:{kind}"),
            "route.salvage.ripup",
        );
        // An `error` at rip-up skips that stage, guaranteeing the Lee
        // fallback actually runs (a successful rip-up would shadow it).
        case(
            &format!(
                "route.net:1:budget-exhaust,route.salvage.ripup:1:error,\
                 route.salvage.lee:1:{kind}"
            ),
            "route.salvage.lee",
        );
    }
}

/// A net whose routed wire fails the router's self-check keeps its
/// partial preroute: three buffers, net `n` prerouted from u0.y to u1.a
/// over a bump at y = 4, and u2.a still to connect.
#[test]
fn chaos_failed_self_check_keeps_the_preroute() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    netart_fault::disarm_all();
    let dir = scratch("self-check-preroute");
    let lib = dir.join("lib");
    fs::create_dir_all(&lib).unwrap();
    fs::write(lib.join("buf.qto"), "module buf 40 20\nin a 0 10\nout y 40 10\n").unwrap();
    fs::write(dir.join("design.net"), "n u0 y\nn u1 a\nn u2 a\n").unwrap();
    fs::write(dir.join("design.call"), "u0 buf\nu1 buf\nu2 buf\n").unwrap();
    let bump = "node: n h 4 6 8\n";
    fs::write(
        dir.join("pre.esc"),
        format!(
            "#TUE-ES-871\ntname: pre\nrepr: 0 0 14 10\nsubsys: u0 buf 0 0 0\n\
             subsys: u1 buf 10 0 0\nsubsys: u2 buf 10 8 0\nnode: n h 1 4 6\n\
             node: n v 6 1 4\n{bump}node: n v 8 1 4\nnode: n h 1 8 10\n"
        ),
    )
    .unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let run = netart_cli::run_eureka(&argv(&[
        "--inject",
        "route.net:1:garbage-output",
        "-L",
        &path("lib"),
        "--diagram",
        &path("pre.esc"),
        "-o",
        &path("out"),
        &path("design.net"),
        &path("design.call"),
    ]));
    let fired = netart_fault::fired();
    netart_fault::disarm_all();
    run.expect("eureka runs");
    assert!(fired.iter().any(|s| s.starts_with("route.net")), "fired: {fired:?}");
    let esc = fs::read_to_string(dir.join("out.esc")).expect("diagram written");
    assert!(esc.contains(bump), "the preroute is gone:\n{esc}");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn chaos_emit_site() {
    for kind in KINDS {
        case(&format!("emit.escher:1:{kind}"), "emit.escher");
    }
}

/// Runs a one-job `netart batch` in-process with `spec` armed
/// (`--jobs 1` so fired-count attribution is unambiguous) and asserts
/// the shared batch invariants: no panic escapes the engine, the
/// written manifest re-parses, and it carries exactly one record.
fn batch_case(spec: &str) -> (netart_cli::RunOutput, BatchManifest) {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    netart_fault::disarm_all();
    let tag = format!("batch-{}", spec.replace([':', '.', ','], "-"));
    let dir = scratch(&tag);
    let (lib, nets, _calls, _io) = write_inputs(&dir);
    // The sibling convention wants `<stem>.cal` next to the net-list.
    fs::copy(dir.join("design.call"), dir.join("design.cal")).unwrap();
    let out_dir = dir.join("out").to_string_lossy().into_owned();
    let manifest_path = dir.join("manifest.json");

    let result = catch_unwind(AssertUnwindSafe(|| {
        run_batch(&argv(&[
            "--input-policy",
            "repair",
            "--inject",
            spec,
            "--jobs",
            "1",
            "-L",
            &lib,
            "--out-dir",
            &out_dir,
            "--report-json",
            &manifest_path.to_string_lossy(),
            &nets,
        ]))
    }));
    let run = result.unwrap_or_else(|_| panic!("{spec}: panic escaped the batch engine"));
    let run = run.unwrap_or_else(|e| panic!("{spec}: batch failed outright: {e}"));
    let text = fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("{spec}: manifest not written: {e}"));
    let manifest = BatchManifest::from_json(
        &Json::parse(&text).unwrap_or_else(|e| panic!("{spec}: manifest not JSON: {e}")),
    )
    .unwrap_or_else(|e| panic!("{spec}: manifest fails the schema: {e}"));
    assert_eq!(manifest.jobs.len(), 1, "{spec}: one record per input");
    netart_fault::disarm_all();
    let _ = fs::remove_dir_all(dir);
    (run, manifest)
}

#[test]
fn chaos_batch_worker_isolation_retries_engine_faults() {
    // One injected fault at the engine's per-attempt site: attempt 1
    // fails transiently (a panic kind must not kill the worker),
    // attempt 2 runs on a burned-out site and succeeds.
    for kind in KINDS {
        let spec = format!("engine.job:1:{kind}");
        let (run, manifest) = batch_case(&spec);
        let job = &manifest.jobs[0];
        assert_eq!(job.status, JobStatus::Ok, "{spec}: {:?}", job.error);
        assert_eq!(job.attempts, 2, "{spec}: retried exactly once");
        assert!(!run.degraded, "{spec}: a recovered retry is a clean job");
    }
}

#[test]
fn chaos_batch_quarantines_a_poison_job() {
    // A fault on every attempt (default max-attempts is 3; each armed
    // spec burns out after firing once, so three specs cover three
    // attempts): the circuit breaker must quarantine instead of
    // retrying forever.
    let (run, manifest) = batch_case("engine.job:1,engine.job:1,engine.job:1");
    let job = &manifest.jobs[0];
    assert_eq!(job.status, JobStatus::Quarantined);
    assert_eq!(job.attempts, 3);
    assert!(job.error.is_some());
    assert!(run.degraded, "a quarantined job degrades the batch (exit 2)");
}

#[test]
fn chaos_batch_pipeline_sites() {
    // Faults inside the per-job pipeline, from parse to emit. A panic
    // during parse is transient (retried against the burned-out site);
    // a routing error degrades the job through the salvage cascade; a
    // garbage emit is caught by the always-on re-parse check.
    let cases: [(&str, JobStatus, u32); 3] = [
        ("parse.network:1:panic", JobStatus::Ok, 2),
        ("route.net:1:error", JobStatus::Degraded, 1),
        ("emit.escher:1:garbage-output", JobStatus::Degraded, 1),
    ];
    for (spec, status, attempts) in cases {
        let (run, manifest) = batch_case(spec);
        let job = &manifest.jobs[0];
        assert_eq!(job.status, status, "{spec}: {:?}", job.error);
        assert_eq!(job.attempts, attempts, "{spec}");
        assert_eq!(
            run.degraded,
            status != JobStatus::Ok,
            "{spec}: exit code mirrors the job status"
        );
    }
}

#[test]
fn chaos_batch_manifest_aggregation_survives_a_panic() {
    // The fault sits after every job has finished, in the manifest
    // build itself: the batch must still write a complete manifest.
    let (run, manifest) = batch_case("engine.manifest:1:panic");
    assert_eq!(manifest.jobs[0].status, JobStatus::Ok);
    assert!(!run.degraded, "the aggregation fault is contained");
}

/// Parses a serve response body as a [`ServeReport`].
fn serve_report(body: &str) -> ServeReport {
    ServeReport::from_json(&Json::parse(body).unwrap_or_else(|e| panic!("not JSON: {e}: {body}")))
        .unwrap_or_else(|e| panic!("not a serve report: {e}: {body}"))
}

#[test]
fn chaos_serve_request_faults_answer_500_and_the_listener_survives() {
    // The fault registry lives in the spawned server, not this
    // process, so no GUARD is needed: each case boots its own binary
    // with the spec armed via `--inject`.
    for kind in KINDS {
        let spec = format!("serve.request:1:{kind}");
        let dir = common::scratch(&format!("chaos-request-{kind}"));
        let lib = common::write_lib(&dir);
        let server = common::ServeProc::start(&lib, &["--inject", &spec]);
        let (net, cal, io) = common::chain_inputs(3);
        let body = common::diagram_request(&net, &cal, Some(&io)).render_pretty();

        // The armed fault trips inside the worker: whatever the kind
        // (a panic included — the worker's catch_unwind contains it),
        // the client gets a structured 500, not a dropped connection.
        let faulted = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(faulted.status, 500, "{spec}: {}", faulted.body);
        let report = serve_report(&faulted.body);
        assert_eq!(report.status.as_str(), "failed", "{spec}");
        assert!(report.error.is_some(), "{spec}: failure carries a message");

        // The listener survived, the faulted result was never cached,
        // and the burned-out one-shot site lets the retry succeed.
        assert_eq!(server.exchange("GET", "/healthz", None).status, 200, "{spec}");
        let retry = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(retry.status, 200, "{spec}: {}", retry.body);
        assert_ne!(serve_report(&retry.body).status.as_str(), "failed", "{spec}");
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn chaos_serve_cache_insert_faults_degrade_to_recompute() {
    // `serve.cache` fires on both cache calls; `nth:2` lands the
    // fault on the first request's *insert*. The contract: the insert
    // is lost, nothing else — the in-hand response is unaffected, the
    // next identical request recomputes (and caches), replays are
    // still byte-identical.
    for kind in KINDS {
        let spec = format!("serve.cache:2:{kind}");
        let dir = common::scratch(&format!("chaos-cacheput-{kind}"));
        let lib = common::write_lib(&dir);
        let server = common::ServeProc::start(&lib, &["--inject", &spec]);
        let (net, cal, io) = common::chain_inputs(3);
        let body = common::diagram_request(&net, &cal, Some(&io)).render_pretty();

        let first = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(first.status, 200, "{spec}: {}", first.body);
        let first = serve_report(&first.body);
        assert_eq!(first.cache.as_str(), "miss", "{spec}");

        let second = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(second.status, 200, "{spec}: {}", second.body);
        let second = serve_report(&second.body);
        assert_eq!(
            second.cache.as_str(),
            "miss",
            "{spec}: the faulted insert must have been dropped"
        );
        assert_eq!(second.escher, first.escher, "{spec}: recompute is deterministic");

        let third = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(third.status, 200, "{spec}: {}", third.body);
        let third = serve_report(&third.body);
        assert_eq!(third.cache.as_str(), "hit", "{spec}: the retry's insert stuck");
        assert_eq!(third.escher, first.escher, "{spec}: byte-identical replay");
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn chaos_serve_cache_lookup_panic_degrades_to_a_miss() {
    // `nth:3` lands a panic on the *second* request's lookup, with the
    // cache already warm: the lookup degrades to a miss (recompute),
    // it does not crash the connection or serve garbage.
    let dir = common::scratch("chaos-cacheget");
    let lib = common::write_lib(&dir);
    let server = common::ServeProc::start(&lib, &["--inject", "serve.cache:3:panic"]);
    let (net, cal, io) = common::chain_inputs(3);
    let body = common::diagram_request(&net, &cal, Some(&io)).render_pretty();

    let first = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(first.status, 200, "{}", first.body);
    let first = serve_report(&first.body);
    assert_eq!(first.cache.as_str(), "miss");

    let second = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(second.status, 200, "{}", second.body);
    let second = serve_report(&second.body);
    assert_eq!(
        second.cache.as_str(),
        "miss",
        "a panicking lookup is a miss, not a crash"
    );
    assert_eq!(second.escher, first.escher);

    let third = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(third.status, 200, "{}", third.body);
    assert_eq!(serve_report(&third.body).cache.as_str(), "hit");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn chaos_serve_telemetry_faults_answer_metrics_unavailable() {
    // A fault on the `/metrics` read path answers a plain-text 503
    // and leaves the server (and the registry) intact: the burned-out
    // one-shot site lets the next scrape succeed.
    for kind in KINDS {
        let spec = format!("serve.telemetry:1:{kind}");
        let dir = common::scratch(&format!("chaos-metrics-{kind}"));
        let lib = common::write_lib(&dir);
        let server = common::ServeProc::start(&lib, &["--inject", &spec]);

        let faulted = server.exchange("GET", "/metrics", None);
        assert_eq!(faulted.status, 503, "{spec}: {}", faulted.body);
        assert!(
            faulted.body.contains("metrics unavailable"),
            "{spec}: {}",
            faulted.body
        );

        let retry = server.exchange("GET", "/metrics", None);
        assert_eq!(retry.status, 200, "{spec}");
        assert!(
            retry.body.contains("netart_serve_telemetry_faults_total 1"),
            "{spec}: the lost scrape is itself counted: {}",
            retry.body
        );
        assert_eq!(server.exchange("GET", "/healthz", None).status, 200, "{spec}");
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn chaos_serve_telemetry_record_faults_never_drop_the_request() {
    // The same site guards the per-request recording path: a fault
    // there loses the sample, never the request being observed.
    for kind in KINDS {
        let spec = format!("serve.telemetry:1:{kind}");
        let dir = common::scratch(&format!("chaos-record-{kind}"));
        let lib = common::write_lib(&dir);
        let server = common::ServeProc::start(&lib, &["--inject", &spec]);
        let (net, cal, io) = common::chain_inputs(3);
        let body = common::diagram_request(&net, &cal, Some(&io)).render_pretty();

        let response = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(response.status, 200, "{spec}: {}", response.body);
        assert_ne!(serve_report(&response.body).status.as_str(), "failed", "{spec}");

        let scrape = server.exchange("GET", "/metrics", None);
        assert_eq!(scrape.status, 200, "{spec}");
        assert!(
            scrape.body.contains("netart_serve_telemetry_faults_total 1"),
            "{spec}: the lost sample is counted: {}",
            scrape.body
        );
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn chaos_flight_dump_faults_degrade_without_touching_the_response() {
    // A fault on the blackbox write path (`obs.flight`) loses the
    // post-mortem dump, nothing else: the deadline-breached request
    // still answers 200/degraded, the loss is named as a
    // `flight_dump_failed` degradation in that response's own run
    // report, and the next incident dumps fine once the one-shot site
    // has burned out.
    for kind in KINDS {
        let spec = format!("obs.flight:1:{kind}");
        let dir = common::scratch(&format!("chaos-flight-{kind}"));
        let lib = common::write_lib(&dir);
        let dump_path = dir.join("blackbox.json");
        let server = common::ServeProc::start(
            &lib,
            &["--inject", &spec, "--blackbox", &dump_path.to_string_lossy()],
        );
        let (net, cal, io) = common::chain_inputs(60);
        let body = common::diagram_request(&net, &cal, Some(&io))
            .with("options", Json::obj().with("timeout_ms", 1u64))
            .render_pretty();

        let breached = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(breached.status, 200, "{spec}: {}", breached.body);
        assert_eq!(serve_report(&breached.body).status.as_str(), "degraded", "{spec}");
        assert!(
            breached.body.contains("flight_dump_failed"),
            "{spec}: the lost dump is named in the run report: {}",
            breached.body
        );
        assert!(!dump_path.exists(), "{spec}: the faulted dump must not half-write");

        // The listener survived, and the next breach dumps through the
        // burned-out site.
        assert_eq!(server.exchange("GET", "/healthz", None).status, 200, "{spec}");
        let again = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(again.status, 200, "{spec}: {}", again.body);
        assert!(
            !again.body.contains("flight_dump_failed"),
            "{spec}: the second dump succeeds: {}",
            again.body
        );
        assert!(dump_path.exists(), "{spec}: the recovered dump was written");
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn env_var_arms_the_registry() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    netart_fault::disarm_all();
    let dir = scratch("envarm");
    let (lib, nets, calls, io) = write_inputs(&dir);
    let out = dir.join("out").to_string_lossy().into_owned();
    std::env::set_var("NETART_INJECT", "route.net:1:error");
    let run = run_netart(&argv(&[
        "--input-policy",
        "repair",
        "-L",
        &lib,
        "-o",
        &out,
        &nets,
        &calls,
        &io,
    ]));
    std::env::remove_var("NETART_INJECT");
    let run = run.expect("env-armed fault degrades, not fails");
    assert!(run.degraded, "{}", run.message);
    assert!(netart_fault::fired().iter().any(|s| s.starts_with("route.net")));
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn chaos_serve_spawn_faults_burn_a_restart_and_the_fleet_recovers() {
    // A fault at `serve.spawn` fails the shard's *first* spawn
    // attempt. The supervisor treats it like any other death: backoff,
    // respawn (the one-shot site is burned out), and the fleet comes
    // up one restart in. Every kind is a spawn failure here — a panic
    // inside the site is contained by the supervisor's catch_unwind.
    for kind in KINDS {
        let spec = format!("serve.spawn:1:{kind}");
        let dir = common::scratch(&format!("chaos-spawn-{kind}"));
        let lib = common::write_lib(&dir);
        let server = common::ServeProc::start(&lib, &["--shards", "1", "--inject", &spec]);

        // The listener was bound by the supervisor before any spawn,
        // so this request queues in the backlog until the respawned
        // worker accepts — no connection refused, no dropped bytes.
        let (net, cal, io) = common::chain_inputs(3);
        let body = common::diagram_request(&net, &cal, Some(&io)).render_pretty();
        let response = server.exchange("POST", "/v1/diagram", Some(&body));
        assert_eq!(response.status, 200, "{spec}: {}", response.body);
        assert_eq!(server.exchange("GET", "/healthz", None).status, 200, "{spec}");

        // The burned first attempt is on the books as a restart.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let metrics = server.exchange("GET", "/metrics", None).body;
            if metrics.contains("netart_serve_shard_restarts_total 1") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{spec}: restart never counted: {metrics}");
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let _ = fs::remove_dir_all(dir);
    }
}
