//! Integration suite for `netart serve`: boots the real binary on an
//! ephemeral port and drives it over real sockets. Covers the
//! hardened-service contract end to end — lifecycle endpoints,
//! content-addressed cache replays (byte-identical), single-flight
//! coalescing, admission-control shedding under overload, deadline
//! propagation into structured degraded responses, the `/metrics`
//! Prometheus exposition and the `/stats` view of it, the
//! `--access-log` JSONL stream, and the SIGTERM-drain exit path.

mod common;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::{chain_inputs, diagram_request, scratch, write_lib, HttpResponse, ServeProc};
use netart::obs::{BlackboxDump, Json, ServeReport, ServeStats, SCHEMA_VERSION};

fn parse_report(response: &HttpResponse) -> ServeReport {
    let doc = Json::parse(&response.body)
        .unwrap_or_else(|e| panic!("response body is not JSON: {e}: {}", response.body));
    ServeReport::from_json(&doc)
        .unwrap_or_else(|e| panic!("response fails the serve schema: {e}: {}", response.body))
}

fn stats(server: &ServeProc) -> ServeStats {
    let response = server.exchange("GET", "/stats", None);
    assert_eq!(response.status, 200);
    ServeStats::from_json(&Json::parse(&response.body).expect("stats body is JSON"))
        .expect("stats body fits the schema")
}

#[test]
fn lifecycle_and_rejection_endpoints_respond() {
    let dir = scratch("lifecycle");
    let server = ServeProc::start(&write_lib(&dir), &[]);

    assert_eq!(server.exchange("GET", "/healthz", None).status, 200);
    let ready = server.exchange("GET", "/readyz", None);
    assert_eq!(ready.status, 200);
    assert!(ready.body.contains("ready"));
    assert_eq!(server.exchange("GET", "/stats", None).status, 200);

    // Unknown endpoint and wrong method are diagnosed, not dropped.
    assert_eq!(server.exchange("GET", "/nope", None).status, 404);
    assert_eq!(server.exchange("GET", "/v1/diagram", None).status, 405);

    // Protocol rejections: non-JSON body, JSON without the required
    // members, and a doctor rejection (unknown module under the
    // default strict policy).
    let bad = server.exchange("POST", "/v1/diagram", Some("not json"));
    assert_eq!(bad.status, 400);
    let empty = server.exchange("POST", "/v1/diagram", Some("{}"));
    assert_eq!(empty.status, 422);
    let unknown_module = diagram_request("n0 u0 y\n", "u0 mystery\n", None).render_pretty();
    let rejected = server.exchange("POST", "/v1/diagram", Some(&unknown_module));
    assert_eq!(rejected.status, 422);
    let report = parse_report(&rejected);
    assert_eq!(report.status.as_str(), "failed");
    assert!(report.error.is_some(), "rejection carries a message");

    let after = stats(&server);
    assert_eq!(after.requests, 3, "only POST /v1/diagram counts as a request");
    assert_eq!(after.failed, 3);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn oversized_bodies_are_refused_with_413() {
    let dir = scratch("toolarge");
    let server = ServeProc::start(&write_lib(&dir), &["--max-body", "256"]);

    let (net, cal, io) = chain_inputs(40);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert!(body.len() > 256);
    let response = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(response.status, 413);
    assert_eq!(parse_report(&response).status.as_str(), "failed");

    // The refusal happened at admission: the pipeline never ran and
    // the server is still healthy.
    let after = stats(&server);
    assert_eq!(after.too_large, 1);
    assert_eq!(after.requests, 0);
    assert_eq!(server.exchange("GET", "/healthz", None).status, 200);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_replays_are_byte_identical() {
    let dir = scratch("cache");
    let server = ServeProc::start(&write_lib(&dir), &[]);

    let (net, cal, io) = chain_inputs(6);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();

    let first = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(first.status, 200, "{}", first.body);
    let inline = Json::parse(&first.body).expect("body is JSON");
    let version = inline.get("report").and_then(|r| r.get("schema_version"));
    assert_eq!(version.and_then(Json::as_u64), Some(u64::from(SCHEMA_VERSION)));
    let first = parse_report(&first);
    assert_eq!(first.status.as_str(), "clean");
    assert_eq!(first.cache.as_str(), "miss");
    assert!(!first.escher.is_empty() && !first.svg.is_empty());
    assert!(first.report.is_some(), "run report is inline");

    // A whitespace-respelled identical input must hit the cache and
    // replay the artifacts byte for byte.
    let respelled = net.replace('\n', "   \r\n");
    let body2 = diagram_request(&respelled, &cal, Some(&io)).render_pretty();
    let second = server.exchange("POST", "/v1/diagram", Some(&body2));
    assert_eq!(second.status, 200);
    let second = parse_report(&second);
    assert_eq!(second.cache.as_str(), "hit");
    assert_eq!(second.artifact, first.artifact);
    assert_eq!(second.escher, first.escher, "byte-identical replay");
    assert_eq!(second.svg, first.svg, "byte-identical replay");

    // Different options address a different artifact: a miss.
    let reordered = diagram_request(&net, &cal, Some(&io))
        .with("options", Json::obj().with("order", "most"))
        .render_pretty();
    let third = parse_report(&server.exchange("POST", "/v1/diagram", Some(&reordered)));
    assert_eq!(third.cache.as_str(), "miss");
    assert_ne!(third.artifact, first.artifact);

    let after = stats(&server);
    assert_eq!(after.cache_hits, 1);
    assert_eq!(after.cache_misses, 2);
    assert!(after.cache_entries >= 2);
    assert!(after.cache_bytes > 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_identical_requests_compute_once() {
    let dir = scratch("flight");
    let server = ServeProc::start(&write_lib(&dir), &["--workers", "2"]);

    let (net, cal, io) = chain_inputs(30);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    let reports: Vec<ServeReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let body = &body;
                let server = &server;
                scope.spawn(move || {
                    let response = server.exchange("POST", "/v1/diagram", Some(body));
                    assert_eq!(response.status, 200, "{}", response.body);
                    parse_report(&response)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Exactly one computation; everyone got byte-identical artifacts,
    // whether they coalesced onto the flight or replayed the cache.
    for r in &reports[1..] {
        assert_eq!(r.artifact, reports[0].artifact);
        assert_eq!(r.escher, reports[0].escher, "byte-identical across callers");
        assert_eq!(r.svg, reports[0].svg);
    }
    let after = stats(&server);
    assert_eq!(after.cache_misses, 1, "one leader computed");
    assert_eq!(
        after.coalesced + after.cache_hits,
        3,
        "the rest coalesced or hit the cache: {after:?}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn overload_sheds_with_429_and_the_server_survives() {
    let dir = scratch("overload");
    // One worker, queue depth one: the third concurrent distinct
    // request must shed.
    let server = ServeProc::start(&write_lib(&dir), &["--workers", "1", "--queue-depth", "1"]);

    // Eight *distinct* heavy requests (coalescing would defeat the
    // point) fired concurrently.
    let bodies: Vec<String> = (0..8)
        .map(|k| {
            let (net, cal, io) = chain_inputs(60 + k);
            diagram_request(&net, &cal, Some(&io)).render_pretty()
        })
        .collect();
    let responses: Vec<HttpResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                let server = &server;
                scope.spawn(move || server.exchange("POST", "/v1/diagram", Some(body)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let shed: Vec<&HttpResponse> = responses.iter().filter(|r| r.status == 429).collect();
    assert!(!shed.is_empty(), "a saturated queue must shed");
    for r in &shed {
        assert!(r.has_header("Retry-After"), "shed responses say when to retry");
        assert_eq!(parse_report(r).status.as_str(), "failed");
    }
    for r in &responses {
        assert!(
            r.status == 200 || r.status == 429,
            "overload answers cleanly or sheds, got {}: {}",
            r.status,
            r.body
        );
    }

    // The server took the overload without dying, and the ledger adds
    // up: every request either resolved or shed.
    let after = stats(&server);
    assert_eq!(after.requests, 8);
    assert_eq!(after.shed, shed.len() as u64);
    assert_eq!(
        after.clean + after.degraded + after.failed + after.shed,
        8,
        "{after:?}"
    );
    assert_eq!(server.exchange("GET", "/healthz", None).status, 200);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_breach_degrades_structurally_and_is_not_cached() {
    let dir = scratch("deadline");
    let server = ServeProc::start(&write_lib(&dir), &[]);

    let (net, cal, io) = chain_inputs(60);
    let body = diagram_request(&net, &cal, Some(&io))
        .with("options", Json::obj().with("timeout_ms", 1u64))
        .render_pretty();

    let response = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(response.status, 200, "a deadline breach degrades, it does not fail");
    let report = parse_report(&response);
    assert_eq!(report.status.as_str(), "degraded");
    assert!(!report.escher.is_empty(), "the truncated diagram is still emitted");
    assert!(
        response.body.contains("deadline_cancelled"),
        "the degradation is named in the run report: {}",
        response.body
    );

    // Timing-dependent results are never cached: the same request
    // computes again instead of replaying a truncated artifact.
    let again = parse_report(&server.exchange("POST", "/v1/diagram", Some(&body)));
    assert_eq!(again.cache.as_str(), "miss");

    let after = stats(&server);
    assert!(after.deadline_cancelled >= 2, "{after:?}");
    assert_eq!(after.cache_hits, 0);
    assert_eq!(after.degraded, 2);
    let _ = std::fs::remove_dir_all(dir);
}

/// One parsed Prometheus exposition: series (name plus rendered label
/// set) to value. Asserts the line-oriented format invariants while
/// parsing: every series is declared by a preceding `# TYPE` line, and
/// every sample value is a non-negative integer.
fn parse_exposition(text: &str) -> (BTreeMap<String, u64>, BTreeMap<String, String>) {
    let mut types = BTreeMap::new();
    let mut series = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let mut parts = decl.split(' ');
            let name = parts.next().expect("type line names a metric").to_owned();
            let kind = parts.next().expect("type line names a kind").to_owned();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown exposition type: {line}"
            );
            types.insert(name, kind);
            continue;
        }
        assert!(!line.starts_with('#'), "only TYPE comments are emitted: {line}");
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line: series value");
        let value: u64 = value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        let base = name_and_labels
            .split('{')
            .next()
            .expect("series has a name")
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            types.contains_key(base),
            "series {name_and_labels} precedes its # TYPE declaration"
        );
        assert!(
            base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric name out of alphabet: {base}"
        );
        series.insert(name_and_labels.to_owned(), value);
    }
    (series, types)
}

#[test]
fn metrics_exposition_is_valid_and_counters_are_monotone() {
    let dir = scratch("metrics");
    let server = ServeProc::start(&write_lib(&dir), &[]);

    let baseline = server.exchange("GET", "/metrics", None);
    assert_eq!(baseline.status, 200);
    assert!(
        baseline.head.to_ascii_lowercase().contains("text/plain; version=0.0.4"),
        "exposition content type: {}",
        baseline.head
    );
    let (before, baseline_types) = parse_exposition(&baseline.body);
    assert!(
        before.contains_key("netart_serve_queue_depth"),
        "queue-depth gauge is always exposed: {:?}",
        before.keys().collect::<Vec<_>>()
    );

    // Build-identity info metric and boot-time gauge are exposed from
    // the first scrape, before any request arrives.
    let build_info = format!(
        "netart_build_info{{version=\"{}\",git=\"unknown\"}}",
        env!("CARGO_PKG_VERSION")
    );
    assert_eq!(
        before.get(&build_info).copied(),
        Some(1),
        "build info series pinned: {:?}",
        before.keys().collect::<Vec<_>>()
    );
    assert_eq!(baseline_types.get("netart_build_info").map(String::as_str), Some("gauge"));
    assert!(
        before["netart_serve_start_time_seconds"] > 1_700_000_000,
        "start time is a plausible unix timestamp: {}",
        before["netart_serve_start_time_seconds"]
    );
    assert_eq!(
        baseline_types.get("netart_serve_start_time_seconds").map(String::as_str),
        Some("gauge")
    );

    let (net, cal, io) = chain_inputs(6);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);

    let scrape = server.exchange("GET", "/metrics", None);
    assert_eq!(scrape.status, 200);
    let (after, types) = parse_exposition(&scrape.body);

    // The acceptance trio: request counter by outcome, queue gauge,
    // latency histogram.
    assert_eq!(after["netart_serve_requests_total{outcome=\"clean\"}"], 2);
    assert_eq!(after["netart_serve_cache_requests_total{result=\"hit\"}"], 1);
    assert_eq!(after["netart_serve_cache_requests_total{result=\"miss\"}"], 1);
    assert!(after.contains_key("netart_serve_queue_depth"));
    assert_eq!(types["netart_serve_queue_depth"], "gauge");
    assert_eq!(types["netart_serve_requests_total"], "counter");
    assert_eq!(types["netart_serve_request_latency_ns"], "histogram");
    assert_eq!(after["netart_serve_request_latency_ns_count"], 2);

    // Counters never go backwards between scrapes.
    for (name, value) in &before {
        if types.get(name.split('{').next().expect("name")).map(String::as_str)
            == Some("counter")
        {
            assert!(
                after.get(name).copied().unwrap_or(0) >= *value,
                "counter {name} went backwards"
            );
        }
    }

    // Histogram integrity: cumulative buckets are monotone in their
    // numeric `le` order and the +Inf bucket equals the _count.
    for (metric, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let mut buckets: Vec<(f64, u64)> = after
            .iter()
            .filter_map(|(name, value)| {
                let bound = name
                    .strip_prefix(&format!("{metric}_bucket{{le=\""))?
                    .strip_suffix("\"}")?;
                let bound = if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound.parse().unwrap_or_else(|e| panic!("bad le bound {bound}: {e}"))
                };
                Some((bound, *value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN bounds"));
        assert!(!buckets.is_empty(), "{metric} exposes no buckets");
        let mut last = 0u64;
        for (bound, value) in &buckets {
            assert!(*value >= last, "{metric} le={bound} breaks cumulative monotonicity");
            last = *value;
        }
        let (top, inf) = buckets.last().expect("nonempty");
        assert!(top.is_infinite(), "{metric}: the last bucket must be +Inf");
        assert_eq!(
            *inf,
            after[&format!("{metric}_count")],
            "{metric}: +Inf bucket must equal the sample count"
        );
        assert!(after.contains_key(&format!("{metric}_sum")), "{metric}_sum missing");
    }

    // The windowed latency quantiles surface in /stats too.
    let after_stats = stats(&server);
    assert_eq!(after_stats.win_latency_count, 2);
    assert!(after_stats.win_latency_p50_ns > 0);
    assert!(after_stats.win_latency_p99_ns >= after_stats.win_latency_p50_ns);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stats_counters_are_views_of_the_metrics_registry() {
    let dir = scratch("stats-view");
    let server = ServeProc::start(&write_lib(&dir), &["--max-body", "2048"]);

    let (net, cal, io) = chain_inputs(3);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    let (net, cal, io) = chain_inputs(100);
    let oversized = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert!(body.len() <= 2048 && oversized.len() > 2048);
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);
    assert_eq!(server.exchange("POST", "/v1/diagram", Some("not json")).status, 400);
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&oversized)).status, 413);

    let s = stats(&server);
    let scrape = server.exchange("GET", "/metrics", None);
    assert_eq!(scrape.status, 200);
    let (series, _) = parse_exposition(&scrape.body);
    let m = |name: &str| series.get(name).copied().unwrap_or(0);
    let outcome = |o: &str| m(&format!("netart_serve_requests_total{{outcome=\"{o}\"}}"));
    let cache = |r: &str| m(&format!("netart_serve_cache_requests_total{{result=\"{r}\"}}"));
    let all_outcomes: u64 = series
        .iter()
        .filter(|(name, _)| name.starts_with("netart_serve_requests_total{"))
        .map(|(_, v)| v)
        .sum();

    assert_eq!(
        (s.requests, s.clean, s.failed, s.too_large, s.cache_hits, s.cache_misses),
        (3, 2, 1, 1, 1, 1),
        "the four requests land where expected"
    );
    assert_eq!(s.requests, all_outcomes, "requests");
    assert_eq!(s.clean, outcome("clean"), "clean");
    assert_eq!(s.degraded, outcome("degraded"), "degraded");
    assert_eq!(
        s.failed,
        outcome("failed") + outcome("mem_reject") + outcome("panic"),
        "failed"
    );
    assert_eq!(s.shed, outcome("shed"), "shed");
    assert_eq!(s.too_large, m("netart_serve_too_large_total"), "too_large");
    assert_eq!(s.drain_rejects, outcome("drain_reject"), "drain_rejects");
    assert_eq!(
        s.deadline_cancelled,
        m("netart_serve_deadline_cancelled_total"),
        "deadline_cancelled"
    );
    assert_eq!(
        s.panics,
        outcome("panic") + m("netart_serve_connection_panics_total"),
        "panics"
    );
    assert_eq!(s.cache_hits, cache("hit"), "cache_hits");
    assert_eq!(s.cache_misses, cache("miss"), "cache_misses");
    assert_eq!(s.coalesced, cache("coalesced"), "coalesced");
    let _ = std::fs::remove_dir_all(dir);
}

/// Strips the wall-clock members (`latency_ns`, per-phase `wall_ns`)
/// from one access-log line, leaving only its deterministic identity.
fn strip_timings(line: &str) -> String {
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("access line is not JSON: {e}: {line}"));
    let phases = doc
        .get("phases")
        .and_then(Json::as_arr)
        .map(|cells| {
            Json::Arr(
                cells
                    .iter()
                    .map(|p| {
                        Json::obj().with(
                            "name",
                            p.get("name").and_then(Json::as_str).unwrap_or_default(),
                        )
                    })
                    .collect(),
            )
        })
        .unwrap_or_else(|| Json::Arr(Vec::new()));
    let s = |name: &str| doc.get(name).and_then(Json::as_str).unwrap_or_default().to_owned();
    Json::obj()
        .with("rid", s("rid").as_str())
        .with("outcome", s("outcome").as_str())
        .with(
            "http_status",
            doc.get("http_status").and_then(Json::as_u64).unwrap_or(0),
        )
        .with("cache", s("cache").as_str())
        .with("artifact", s("artifact").as_str())
        .with(
            "deadline_cancelled",
            doc.get("deadline_cancelled").and_then(Json::as_bool).unwrap_or(false),
        )
        .with("phases", phases)
        .render()
}

#[test]
fn access_log_replays_deterministically_with_one_worker() {
    // The same request sequence against two fresh single-worker
    // servers must produce identical access logs once wall-clock
    // members are stripped: same rids, same outcomes, same artifacts,
    // same cache verdicts, same phase structure.
    let dir = scratch("accesslog");
    let lib = write_lib(&dir);
    let (net_a, cal_a, io_a) = chain_inputs(6);
    let (net_b, cal_b, io_b) = chain_inputs(9);
    let body_a = diagram_request(&net_a, &cal_a, Some(&io_a)).render_pretty();
    let body_b = diagram_request(&net_b, &cal_b, Some(&io_b)).render_pretty();

    let run = |log_name: &str| {
        let log = dir.join(log_name);
        let mut server = ServeProc::start(
            &lib,
            &["--workers", "1", "--access-log", &log.to_string_lossy()],
        );
        assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body_a)).status, 200);
        assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body_b)).status, 200);
        assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body_a)).status, 200);
        server.sigterm();
        let (code, _) = server.wait_exit();
        assert_eq!(code, Some(0));
        std::fs::read_to_string(&log).expect("access log written")
    };
    let first = run("first.jsonl");
    let second = run("second.jsonl");

    let normalize = |text: &str| -> Vec<String> { text.lines().map(strip_timings).collect() };
    let first = normalize(&first);
    assert_eq!(first, normalize(&second), "replay must be deterministic");

    assert_eq!(first.len(), 3, "one line per diagram request");
    for (k, line) in first.iter().enumerate() {
        assert!(
            line.contains(&format!("\"rid\":\"r{k:06}\"")),
            "rids are sequential: {line}"
        );
    }
    assert!(first[0].contains("\"cache\":\"miss\""), "{}", first[0]);
    assert!(first[2].contains("\"cache\":\"hit\""), "{}", first[2]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_cancellation_names_the_breaching_request() {
    let dir = scratch("deadline-rid");
    let server = ServeProc::start(&write_lib(&dir), &[]);

    let (net, cal, io) = chain_inputs(60);
    let body = diagram_request(&net, &cal, Some(&io))
        .with("options", Json::obj().with("timeout_ms", 1u64))
        .render_pretty();
    let response = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(response.status, 200);
    assert!(
        response.body.contains("request r000000 deadline"),
        "the degradation names the breaching request id: {}",
        response.body
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigterm_flips_readiness_drains_and_exits_zero() {
    let dir = scratch("sigterm");
    let mut server = ServeProc::start(
        &write_lib(&dir),
        &["--workers", "1", "--drain-grace", "2000"],
    );

    // A completed request before the signal, so the drain summary has
    // something to count.
    let (net, cal, io) = chain_inputs(6);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);

    // Hold one connection open across the signal: the server must
    // keep answering health probes while it drains instead of
    // slamming the door.
    let held = std::net::TcpStream::connect(&server.addr).expect("held connection");

    server.sigterm();

    // Readiness flips within the drain window...
    let deadline = Instant::now() + Duration::from_secs(3);
    let flipped = loop {
        match server.request("GET", "/readyz", None) {
            Ok(r) if r.status == 503 => break true,
            _ if Instant::now() > deadline => break false,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(flipped, "readyz must answer 503 once draining");

    // ...while liveness stays green and *new* work is refused with
    // 503. (The input must be fresh: cached artifacts keep replaying
    // during drain, by design.)
    assert_eq!(server.exchange("GET", "/healthz", None).status, 200);
    let (net2, cal2, io2) = chain_inputs(8);
    let fresh = diagram_request(&net2, &cal2, Some(&io2)).render_pretty();
    let refused = server.exchange("POST", "/v1/diagram", Some(&fresh));
    assert_eq!(refused.status, 503);
    assert_eq!(parse_report(&refused).status.as_str(), "failed");

    drop(held);
    let (code, rest) = server.wait_exit();
    assert_eq!(code, Some(0), "a signal-driven drain is a clean exit");
    assert!(
        rest.contains("drained cleanly"),
        "exit summary reports the drain: {rest:?}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Polls for `path` to appear and parses it as a blackbox dump.
fn wait_for_dump(path: &std::path::Path) -> BlackboxDump {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.is_empty() {
                let doc = Json::parse(&text)
                    .unwrap_or_else(|e| panic!("blackbox file is not JSON: {e}: {text}"));
                return BlackboxDump::from_json(&doc)
                    .unwrap_or_else(|e| panic!("blackbox file fails the schema: {e}"));
            }
        }
        assert!(Instant::now() < deadline, "no blackbox dump at {}", path.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn debug_flight_endpoint_is_gated_behind_the_flag() {
    let dir = scratch("debugflight");
    let lib = write_lib(&dir);

    // Without the flag the endpoint does not exist.
    let closed = ServeProc::start(&lib, &[]);
    assert_eq!(closed.exchange("GET", "/debug/flight", None).status, 404);
    drop(closed);

    // With it, the live ring is inspectable: a parseable dump whose
    // records cover the request the server just answered.
    let open = ServeProc::start(&lib, &["--debug-endpoints"]);
    let (net, cal, io) = chain_inputs(6);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(open.exchange("POST", "/v1/diagram", Some(&body)).status, 200);

    let peek = open.exchange("GET", "/debug/flight", None);
    assert_eq!(peek.status, 200);
    let doc = Json::parse(&peek.body)
        .unwrap_or_else(|e| panic!("/debug/flight body is not JSON: {e}: {}", peek.body));
    let dump = BlackboxDump::from_json(&doc).expect("dump fits the blackbox schema");
    assert_eq!(dump.reason, "debug");
    assert!(!dump.records.is_empty(), "the ring saw the request's spans");
    assert!(
        dump.records.iter().any(|r| r.name == "serve.request"),
        "request span retained: {:?}",
        dump.records.iter().map(|r| r.name.as_str()).collect::<Vec<_>>()
    );
    // Peeking is not a request and does not disturb the ledger.
    assert_eq!(stats(&open).requests, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigusr1_dumps_a_blackbox_that_round_trips_through_netart_blackbox() {
    let dir = scratch("sigusr1");
    // ServeProc does not pin the child's cwd, so the dump path must be
    // absolute.
    let dump_path = dir.join("blackbox.json");
    let mut server = ServeProc::start(
        &write_lib(&dir),
        &["--blackbox", &dump_path.to_string_lossy()],
    );

    let (net, cal, io) = chain_inputs(6);
    let body = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&body)).status, 200);

    server.signal("USR1");
    let dump = wait_for_dump(&dump_path);
    assert_eq!(dump.reason, "signal");
    assert_eq!(dump.rid, None, "an operator dump is not about one request");
    assert!(
        dump.records.iter().any(|r| r.name == "serve.request"),
        "the ring retained the request's span"
    );

    // The dump renders as a timeline through the subcommand.
    let rendered = std::process::Command::new(env!("CARGO_BIN_EXE_netart"))
        .args(["blackbox", &dump_path.to_string_lossy()])
        .output()
        .expect("netart blackbox runs");
    assert!(rendered.status.success(), "{rendered:?}");
    let text = String::from_utf8(rendered.stdout).expect("timeline is UTF-8");
    assert!(text.contains("blackbox: reason=signal"), "{text}");
    assert!(text.contains("serve.request"), "{text}");

    // The dump is an observation, not a disruption: the server still
    // serves and still drains cleanly.
    assert_eq!(server.exchange("GET", "/healthz", None).status, 200);
    server.sigterm();
    let (code, _) = server.wait_exit();
    assert_eq!(code, Some(0));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_breach_leaves_a_blackbox_naming_the_request() {
    let dir = scratch("deadline-bb");
    let dump_path = dir.join("blackbox.json");
    let server = ServeProc::start(
        &write_lib(&dir),
        &["--blackbox", &dump_path.to_string_lossy()],
    );

    let (net, cal, io) = chain_inputs(60);
    let body = diagram_request(&net, &cal, Some(&io))
        .with("options", Json::obj().with("timeout_ms", 1u64))
        .render_pretty();
    let response = server.exchange("POST", "/v1/diagram", Some(&body));
    assert_eq!(response.status, 200);
    assert_eq!(parse_report(&response).status.as_str(), "degraded");

    let dump = wait_for_dump(&dump_path);
    assert_eq!(dump.reason, "deadline");
    assert_eq!(dump.rid.as_deref(), Some("r000000"), "dump names the breaching request");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn memory_budget_rejects_over_budget_submissions_and_recovers() {
    let dir = scratch("membudget");
    let server = ServeProc::start(
        &write_lib(&dir),
        &["--workers", "1", "--max-body", "1048576", "--memory-budget", "128k"],
    );

    // An in-budget request computes normally.
    let (net, cal, io) = chain_inputs(4);
    let small = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&small)).status, 200);

    // A body that fits the admission window but whose parse outgrows
    // the governor's remaining room: refused with 503 + Retry-After,
    // not 422 — the verdict is on the moment, not the input.
    let (net, cal, io) = chain_inputs(2000);
    let big = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert!(big.len() < 128 * 1024, "must pass admission: {}", big.len());
    let refused = server.exchange("POST", "/v1/diagram", Some(&big));
    assert_eq!(refused.status, 503);
    assert!(refused.has_header("Retry-After"), "{}", refused.head);
    assert_eq!(parse_report(&refused).status.as_str(), "failed");

    // A request whose *declared* length alone exceeds the budget (but
    // not --max-body) is bounced at admission, before buffering — the
    // verdict arrives off the headers, so only headers are sent here.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
        stream
            .write_all(
                b"POST /v1/diagram HTTP/1.1\r\nHost: netart\r\nContent-Length: 307200\r\n\r\n",
            )
            .expect("write headers");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read admission verdict");
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        assert!(raw.to_ascii_lowercase().contains("retry-after:"), "{raw}");
    }

    // Both refusals surface on the mem-rejection counter.
    let scrape = server.exchange("GET", "/metrics", None);
    assert_eq!(scrape.status, 200);
    let (series, types) = parse_exposition(&scrape.body);
    assert_eq!(
        types.get("netart_serve_mem_rejections_total").map(String::as_str),
        Some("counter")
    );
    assert!(
        series.get("netart_serve_mem_rejections_total").copied().unwrap_or(0) >= 2,
        "rejections counted: {series:?}"
    );

    // The lease died with the refused requests: fresh in-budget work
    // still computes.
    let (net, cal, io) = chain_inputs(6);
    let fresh = diagram_request(&net, &cal, Some(&io)).render_pretty();
    assert_eq!(server.exchange("POST", "/v1/diagram", Some(&fresh)).status, 200);
    let _ = std::fs::remove_dir_all(dir);
}
