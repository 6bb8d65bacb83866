//! Golden-file test pinning the `BatchManifest` JSON schema.
//!
//! Same discipline as `golden_schema.rs`: the rendered manifest for a
//! fully-populated, fixed-value `BatchManifest` must match
//! `tests/golden/batch_manifest.json` byte for byte. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p netart-obs --test
//! golden_batch_schema`; renames and removals also require bumping
//! [`netart_obs::BATCH_SCHEMA_VERSION`].

mod support;

use netart_obs::{BatchManifest, JobRecord, JobStatus, QuarantineReport, RunReport};

/// A manifest exercising every member of the schema with fixed values.
fn exemplar() -> BatchManifest {
    BatchManifest::new(
        "netart batch",
        2,
        true,
        vec![
            JobRecord {
                input: "examples/batch/ok.net".to_owned(),
                status: JobStatus::Ok,
                attempts: 1,
                duration_ns: 1_000,
                degradations: 0,
                error: None,
                quarantine: None,
                report: Some(RunReport {
                    tool: "netart".to_owned(),
                    is_clean: true,
                    ..RunReport::default()
                }),
            },
            JobRecord {
                input: "examples/batch/salvaged.net".to_owned(),
                status: JobStatus::Degraded,
                attempts: 1,
                duration_ns: 2_000,
                degradations: 2,
                error: None,
                quarantine: None,
                report: Some(RunReport {
                    tool: "netart".to_owned(),
                    is_clean: false,
                    ..RunReport::default()
                }),
            },
            JobRecord {
                input: "examples/batch/poison.net".to_owned(),
                status: JobStatus::Quarantined,
                attempts: 3,
                duration_ns: 3_000,
                degradations: 0,
                error: Some("injected panic at engine.job".to_owned()),
                quarantine: Some(QuarantineReport {
                    after_attempts: 3,
                    symptom: "injected panic at engine.job".to_owned(),
                }),
                report: None,
            },
            JobRecord {
                input: "examples/batch/broken.net".to_owned(),
                status: JobStatus::Failed,
                attempts: 1,
                duration_ns: 500,
                degradations: 0,
                error: Some("parse error: line 3: unknown template".to_owned()),
                quarantine: None,
                report: None,
            },
            JobRecord {
                input: "examples/batch/late.net".to_owned(),
                status: JobStatus::Skipped,
                attempts: 0,
                duration_ns: 0,
                degradations: 0,
                error: None,
                quarantine: None,
                report: None,
            },
        ],
    )
}

#[test]
fn batch_manifest_matches_golden() {
    support::assert_golden(
        "batch_manifest.json",
        &exemplar().to_json_string(),
        "BATCH_SCHEMA_VERSION",
    );
}

#[test]
fn manifest_roundtrips_through_json() {
    let original = exemplar();
    let text = original.to_json_string();
    let parsed = netart_obs::Json::parse(&text).expect("rendered manifest parses");
    let read_back = BatchManifest::from_json(&parsed).expect("manifest reads back");
    assert_eq!(read_back, original);
    assert_eq!(read_back.to_json_string(), text, "roundtrip is byte-stable");
}

#[test]
fn summary_and_exit_code_cover_every_status() {
    let m = exemplar();
    assert_eq!(m.summary.ok, 1);
    assert_eq!(m.summary.degraded, 1);
    assert_eq!(m.summary.failed, 1);
    assert_eq!(m.summary.quarantined, 1);
    assert_eq!(m.summary.skipped, 1);
    assert_eq!(m.summary.total_attempts, 6);
    assert_eq!(m.exit_code(), 2);
}

#[test]
fn normalized_manifest_is_free_of_wall_clock() {
    let n = exemplar().normalized();
    assert_eq!(n.summary.duration_ns, 0);
    for job in &n.jobs {
        assert_eq!(job.duration_ns, 0);
        if let Some(r) = &job.report {
            assert!(r.phases.iter().all(|p| p.wall_ns == 0));
        }
    }
    // Two normalisations render identically (the determinism contract
    // the batch tests compare with).
    assert_eq!(n.to_json_string(), exemplar().normalized().to_json_string());
}
