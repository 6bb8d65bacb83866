//! Golden-file tests pinning the `ServeReport`, `ProfileReport` and
//! `BlackboxDump` JSON schemas and the serve access-log line, plus
//! reader tables covering all six schema-versioned documents.
//!
//! Same discipline as `golden_schema.rs`: each fully populated,
//! fixed-value exemplar (`null` members and, for the serve report, a
//! nested `RunReport` included) must render byte-identically to its
//! file under `tests/golden/`. Regenerate with `UPDATE_GOLDEN=1 cargo
//! test -p netart-obs --test golden_documents`; renames and removals
//! also require bumping the document's schema version constant.
//!
//! The reader tables pin what a sparse or hostile document reads as:
//! missing members read as defaults, `null` reads as `None`, the batch
//! summary is recomputed from the jobs, and unknown enum strings,
//! unsupported versions and a wrong profile `kind` are errors naming
//! the offending value.

mod support;

use netart_obs::{
    AccessRecord, BatchManifest, BatchSummary, BlackboxDump, CacheOutcome, FlightRecord,
    HistogramSummary, Json, ProfileCell, ProfileReport, ProfileTotals, RunReport, ServeReport,
    ServeStats, ServeStatus,
};
use tracing::Level;

fn serve_report_exemplar() -> ServeReport {
    ServeReport {
        status: ServeStatus::Degraded,
        cache: CacheOutcome::Coalesced,
        artifact: "a1b2c3d4e5f60718".to_owned(),
        escher: "module \"top\" 10 10\n\tnet clk\n".to_owned(),
        svg: "<svg xmlns=\"http://www.w3.org/2000/svg\"/>".to_owned(),
        error: None,
        report: Some(support::run_report_exemplar()),
    }
}

fn profile_exemplar() -> ProfileReport {
    ProfileReport {
        tool: "netart profile".to_owned(),
        cols: 4,
        rows: 2,
        bounds: (-8, -4, 40, 20),
        totals: ProfileTotals {
            nets: 3,
            routed: 2,
            expansions: 190,
            ripup_victims: 1,
            salvaged: 1,
        },
        cells: vec![
            ProfileCell {
                col: 0,
                row: 0,
                expansions: 150,
                ripup_victims: 0,
                salvaged: 0,
                nets: 2,
            },
            ProfileCell {
                col: 3,
                row: 1,
                expansions: 40,
                ripup_victims: 1,
                salvaged: 1,
                nets: 1,
            },
        ],
    }
}

fn blackbox_exemplar() -> BlackboxDump {
    BlackboxDump {
        reason: "deadline".to_owned(),
        rid: Some("r000042".to_owned()),
        uptime_us: 125_000.5,
        dropped: 7,
        active_spans: vec!["serve.request".to_owned(), "netart.route".to_owned()],
        degradations: vec!["net_salvaged".to_owned(), "deadline_cancelled".to_owned()],
        records: vec![
            FlightRecord {
                seq: 7,
                ts_us: 1_250.25,
                tid: 2,
                level: Level::INFO,
                kind: "span",
                name: "netart.place".to_owned(),
                elapsed_ns: Some(1_500_000),
                fields: Json::obj().with("modules", 3u64),
            },
            FlightRecord {
                seq: 8,
                ts_us: 2_000.0,
                tid: 2,
                level: Level::WARN,
                kind: "event",
                name: "deadline tripped".to_owned(),
                elapsed_ns: None,
                fields: Json::obj()
                    .with("rid", "r000042")
                    .with("late_ns", Json::Int(-3)),
            },
        ],
    }
}

#[test]
fn serve_report_matches_golden() {
    let rendered = serve_report_exemplar().to_json_string();
    support::assert_golden("serve_report.json", &rendered, "SERVE_SCHEMA_VERSION");
}

#[test]
fn profile_matches_golden() {
    let rendered = profile_exemplar().to_json_string();
    support::assert_golden("profile.json", &rendered, "PROFILE_SCHEMA_VERSION");
}

#[test]
fn blackbox_dump_matches_golden() {
    let rendered = blackbox_exemplar().to_json_string();
    support::assert_golden("flight_dump.json", &rendered, "BLACKBOX_SCHEMA_VERSION");
}

/// The access log holds one compact line per request; the golden holds
/// two: a served request and one shed before it reached the cache.
#[test]
fn access_log_lines_match_golden() {
    let mut served = AccessRecord {
        rid: "s1-r000007".to_owned(),
        outcome: ServeStatus::Degraded.as_str().to_owned(),
        http_status: 200,
        cache: CacheOutcome::Coalesced.as_str().to_owned(),
        artifact: "a1b2c3d4e5f60718".to_owned(),
        deadline_cancelled: true,
        latency_ns: 2_500_000,
        phases: Vec::new(),
    };
    served.set_phases(&support::run_report_exemplar());
    let shed = AccessRecord {
        outcome: "shed".to_owned(),
        http_status: 429,
        ..AccessRecord::new("r000008".to_owned())
    };
    let rendered = format!("{}\n{}\n", served.to_json_line(), shed.to_json_line());
    support::assert_golden("access_log.jsonl", &rendered, "SERVE_SCHEMA_VERSION");
}

#[test]
fn new_exemplars_roundtrip_byte_stably() {
    let text = serve_report_exemplar().to_json_string();
    let back = ServeReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, serve_report_exemplar());
    assert_eq!(back.to_json_string(), text);

    let text = profile_exemplar().to_json_string();
    let back = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, profile_exemplar());
    assert_eq!(back.to_json_string(), text);

    let text = blackbox_exemplar().to_json_string();
    let back = BlackboxDump::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, blackbox_exemplar());
    assert_eq!(back.to_json_string(), text);
}

fn doc(text: &str) -> Json {
    Json::parse(text).expect("test document parses")
}

#[test]
fn sparse_documents_read_missing_members_as_defaults() {
    let sparse = |version: u32| doc(&format!(r#"{{"schema_version":{version}}}"#));
    assert_eq!(RunReport::from_json(&sparse(1)), Ok(RunReport::default()));
    assert_eq!(ServeStats::from_json(&sparse(1)), Ok(ServeStats::default()));

    let run = RunReport::from_json(&doc(r#"{"schema_version":3,"tool":"eureka",
        "phases":[{"name":"route","p50_ns":9,"p90_ns":null}],"nets":[{"net":"clk","salvage":null}],
        "metrics":{"counters":{"n":2,"junk":"x"},"histograms":{"h":{"count":3},"bad":1}}}"#))
    .unwrap();
    let mut expected = RunReport {
        tool: "eureka".to_owned(),
        ..RunReport::default()
    };
    expected.push_phase("route", 0);
    expected.phases[0].p50_ns = Some(9);
    expected.metrics.counters.insert("n".to_owned(), 2);
    let histogram = HistogramSummary {
        count: 3,
        ..HistogramSummary::default()
    };
    expected
        .metrics
        .histograms
        .insert("h".to_owned(), histogram);
    assert_eq!(run.phases, expected.phases);
    assert_eq!(run.metrics, expected.metrics, "junk entries are skipped");
    assert_eq!(run.nets[0].net, "clk");
    assert!(!run.nets[0].routed && run.nets[0].salvage.is_none());

    // The summary counts come from the jobs; only the duration is read.
    let batch = BatchManifest::from_json(&doc(r#"{"schema_version":1,"jobs":[
        {"input":"b.net","status":"ok"},{"input":"a.net","status":"failed","attempts":2,"error":null}],
        "summary":{"ok":40,"failed":3,"duration_ns":7}}"#))
    .unwrap();
    let inputs: Vec<&str> = batch.jobs.iter().map(|j| j.input.as_str()).collect();
    assert_eq!(inputs, ["a.net", "b.net"]);
    assert_eq!(
        (batch.jobs[0].error.as_deref(), batch.jobs[1].attempts),
        (None, 0)
    );
    let summary = BatchSummary {
        ok: 1,
        failed: 1,
        total_attempts: 2,
        duration_ns: 7,
        ..BatchSummary::default()
    };
    assert_eq!(batch.summary, summary);

    let serve = r#"{"schema_version":1,"status":"clean","cache":"hit","report":null}"#;
    let serve = ServeReport::from_json(&doc(serve)).unwrap();
    assert_eq!(
        (serve.artifact.as_str(), serve.error, serve.report),
        ("", None, None)
    );

    let profile = r#"{"schema_version":1,"kind":"profile","cells":[{"col":2}]}"#;
    let profile = ProfileReport::from_json(&doc(profile)).unwrap();
    let cell = ProfileCell {
        col: 2,
        ..ProfileCell::default()
    };
    assert_eq!((profile.bounds, profile.cells), ((0, 0, 0, 0), vec![cell]));

    // Unknown levels read as INFO and unknown kinds as `event`.
    let dump = BlackboxDump::from_json(&doc(r#"{"schema_version":1,"rid":null,
        "active_spans":["a",3],"records":[{"name":"x"},{"level":"LOUD","kind":"other"}]}"#))
    .unwrap();
    assert_eq!((dump.rid, dump.active_spans), (None, vec!["a".to_owned()]));
    for record in &dump.records {
        assert_eq!(
            (record.seq, record.level, record.kind),
            (0, Level::INFO, "event")
        );
        assert_eq!((record.elapsed_ns, &record.fields), (None, &Json::obj()));
    }
}

/// One reader error per line: the document kind, the document, and
/// after `=>` the text its error must contain.
const READ_ERRORS: &str = r#"
batch {"schema_version":1,"jobs":[{"status":"exploded"}]} => unknown job status "exploded"
batch {"schema_version":1,"jobs":[{"input":"a"}]} => unknown job status ""
serve {"schema_version":1,"status":"exploded","cache":"hit"} => unknown serve status "exploded"
serve {"schema_version":1,"status":"clean","cache":"warmish"} => unknown cache outcome "warmish"
serve {"schema_version":1,"status":"clean","cache":"hit","report":[]} => report is not a JSON object
run {"schema_version":4} => unsupported schema_version 4 (this build reads 1..=3)
batch {"schema_version":2} => unsupported schema_version 2 (this build reads 1)
stats {"schema_version":0} => unsupported schema_version 0 (this build reads 1)
profile {"schema_version":1,"kind":"report"} => document kind is not "profile"
blackbox {"reason":"panic"} => missing schema_version
run [] => report is not a JSON object
"#;

#[test]
fn reader_errors_name_the_problem() {
    for line in READ_ERRORS.lines().filter(|l| !l.is_empty()) {
        let (kind, rest) = line.split_once(' ').unwrap();
        let (text, needle) = rest.split_once(" => ").unwrap();
        let json = doc(text);
        let err = match kind {
            "run" => RunReport::from_json(&json).map(drop),
            "batch" => BatchManifest::from_json(&json).map(drop),
            "serve" => ServeReport::from_json(&json).map(drop),
            "stats" => ServeStats::from_json(&json).map(drop),
            "profile" => ProfileReport::from_json(&json).map(drop),
            "blackbox" => BlackboxDump::from_json(&json).map(drop),
            _ => panic!("unknown kind in {line}"),
        }
        .expect_err(line);
        assert!(err.contains(needle), "{line}: got {err:?}");
    }
}
