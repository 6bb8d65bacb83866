//! The machine-readable batch manifest.
//!
//! A [`BatchManifest`] is what `netart batch` writes: one record per
//! input job (status, attempts, duration, degradation count, and the
//! job's full [`RunReport`] when the pipeline produced one), plus an
//! aggregate summary. Like the run report, the shape is versioned and
//! pinned by a golden-file test; adding members is allowed within a
//! version, renaming or removing them requires a bump.
//!
//! Records are kept sorted by input path and the JSON rendering is
//! fully deterministic, so two batch runs over the same inputs can be
//! compared byte-for-byte once [`BatchManifest::normalized`] has
//! stripped the wall-clock quantities.

use crate::json::{json_enum, json_record};
use crate::report::RunReport;

/// Version of the manifest shape. Bump when members are renamed,
/// removed, or change meaning.
pub const BATCH_SCHEMA_VERSION: u32 = 1;

json_enum! {
    /// Terminal status of one batch job.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum JobStatus("job status") {
        /// Pipeline ran clean on some attempt.
        Ok = "ok",
        /// Pipeline finished but needed fallbacks (salvage, doctor
        /// repairs, emit retries, …).
        Degraded = "degraded",
        /// Permanent failure (parse/IO error, or cancelled mid-flight
        /// during drain) — retrying would not help.
        Failed = "failed",
        /// Circuit breaker: the input failed every retry with transient
        /// symptoms (panic, injected fault, budget exhaustion) and was
        /// quarantined so it cannot starve the rest of the batch.
        Quarantined = "quarantined",
        /// Never started: the job was still queued when the batch drained.
        Skipped = "skipped",
    }
}

json_record! {
    /// Why the circuit breaker quarantined a job: which symptom burned
    /// the final attempt, and how many attempts it took to trip. Present
    /// exactly on [`JobStatus::Quarantined`] records, so batch and serve
    /// consumers can report breaker decisions without re-deriving them
    /// from free-text errors.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QuarantineReport {
        /// Attempts burned before the breaker tripped.
        pub after_attempts: u32,
        /// The transient symptom of the final attempt (panic message,
        /// injected fault, budget exhaustion, …).
        pub symptom: String,
    }

    /// One input's journey through the batch engine.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobRecord {
        /// The job's input path (the manifest's ordering key).
        pub input: String,
        /// Terminal status.
        pub status: JobStatus,
        /// Pipeline attempts made (0 for skipped jobs).
        pub attempts: u32,
        /// Wall-clock nanoseconds across all attempts (zeroed by
        /// [`BatchManifest::normalized`]).
        pub duration_ns: u64,
        /// Degradations recorded by the final attempt's run report.
        pub degradations: usize,
        /// The last failure message, for failed/quarantined jobs.
        pub error: Option<String>,
        /// The breaker's decision context, for quarantined jobs.
        pub quarantine: Option<QuarantineReport>,
        /// The final attempt's run report, when the pipeline produced one.
        pub report: Option<RunReport>,
    }

    /// Aggregate counts over a manifest's jobs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct BatchSummary {
        /// Jobs per terminal status.
        pub ok: usize,
        /// See [`JobStatus::Degraded`].
        pub degraded: usize,
        /// See [`JobStatus::Failed`].
        pub failed: usize,
        /// See [`JobStatus::Quarantined`].
        pub quarantined: usize,
        /// See [`JobStatus::Skipped`].
        pub skipped: usize,
        /// Pipeline attempts across all jobs (retries included).
        pub total_attempts: u32,
        /// Batch wall-clock nanoseconds (zeroed by
        /// [`BatchManifest::normalized`]).
        pub duration_ns: u64,
    }

    document(
        version: BATCH_SCHEMA_VERSION,
        oldest: BATCH_SCHEMA_VERSION,
        noun: "manifest",
        then: BatchManifest::recounted,
    )
    /// Everything one batch run reports, in a stable JSON shape.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct BatchManifest {
        /// Which tool produced the manifest (`netart batch`).
        pub tool: String,
        /// Worker threads the batch ran with.
        pub jobs_in_flight: u32,
        /// Whether the batch drained early on a signal.
        pub drained: bool,
        /// One record per input, sorted by input path.
        pub jobs: Vec<JobRecord>,
        /// Aggregate counts.
        pub summary: BatchSummary,
    }
}

impl BatchManifest {
    /// A manifest over `jobs`, with records sorted by input path and
    /// the summary recomputed. `jobs_in_flight` is the worker count;
    /// `drained` records an early drain.
    pub fn new(tool: &str, jobs_in_flight: u32, drained: bool, mut jobs: Vec<JobRecord>) -> Self {
        jobs.sort_by(|a, b| a.input.cmp(&b.input));
        let mut summary = BatchSummary::default();
        for job in &jobs {
            match job.status {
                JobStatus::Ok => summary.ok += 1,
                JobStatus::Degraded => summary.degraded += 1,
                JobStatus::Failed => summary.failed += 1,
                JobStatus::Quarantined => summary.quarantined += 1,
                JobStatus::Skipped => summary.skipped += 1,
            }
            summary.total_attempts += job.attempts;
        }
        BatchManifest {
            tool: tool.to_owned(),
            jobs_in_flight,
            drained,
            jobs,
            summary,
        }
    }

    /// The batch exit code, mirroring the single-run CLI contract:
    /// `0` when every job is `ok`, `2` when the batch completed but
    /// some jobs degraded, failed, were quarantined or skipped. (Exit
    /// `1` is reserved for the engine itself failing — no inputs,
    /// unwritable manifest — which never produces a manifest at all.)
    pub fn exit_code(&self) -> i32 {
        let s = &self.summary;
        if s.degraded + s.failed + s.quarantined + s.skipped == 0 {
            0
        } else {
            2
        }
    }

    /// A manifest as read back: the summary counts recomputed from the
    /// jobs, only its duration taken from the document.
    fn recounted(read: BatchManifest) -> BatchManifest {
        let mut manifest =
            BatchManifest::new(&read.tool, read.jobs_in_flight, read.drained, read.jobs);
        manifest.summary.duration_ns = read.summary.duration_ns;
        manifest
    }

    /// The manifest with every wall-clock quantity zeroed — job and
    /// summary durations, plus [`RunReport::normalized`] applied to
    /// every embedded report. Two batch runs over the same inputs
    /// render this form byte-identically regardless of `--jobs` or
    /// machine speed.
    pub fn normalized(&self) -> BatchManifest {
        let mut manifest = self.clone();
        manifest.summary.duration_ns = 0;
        for job in &mut manifest.jobs {
            job.duration_ns = 0;
            job.report = job.report.as_ref().map(RunReport::normalized);
        }
        manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> BatchManifest {
        BatchManifest::new(
            "netart batch",
            4,
            false,
            vec![
                JobRecord {
                    input: "b.net".into(),
                    status: JobStatus::Quarantined,
                    attempts: 3,
                    duration_ns: 500,
                    degradations: 0,
                    error: Some("injected panic".into()),
                    quarantine: Some(QuarantineReport {
                        after_attempts: 3,
                        symptom: "injected panic".into(),
                    }),
                    report: None,
                },
                JobRecord {
                    input: "a.net".into(),
                    status: JobStatus::Ok,
                    attempts: 1,
                    duration_ns: 900,
                    degradations: 0,
                    error: None,
                    quarantine: None,
                    report: Some(RunReport {
                        tool: "netart".into(),
                        is_clean: true,
                        ..RunReport::default()
                    }),
                },
            ],
        )
    }

    #[test]
    fn jobs_sort_by_input_and_summary_counts() {
        let m = sample();
        let inputs: Vec<&str> = m.jobs.iter().map(|j| j.input.as_str()).collect();
        assert_eq!(inputs, ["a.net", "b.net"]);
        assert_eq!(m.summary.ok, 1);
        assert_eq!(m.summary.quarantined, 1);
        assert_eq!(m.summary.total_attempts, 4);
        assert_eq!(m.exit_code(), 2);
    }

    #[test]
    fn all_ok_exits_zero() {
        let m = BatchManifest::new(
            "netart batch",
            1,
            false,
            vec![JobRecord {
                input: "a.net".into(),
                status: JobStatus::Ok,
                attempts: 1,
                duration_ns: 1,
                degradations: 0,
                error: None,
                quarantine: None,
                report: None,
            }],
        );
        assert_eq!(m.exit_code(), 0);
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let parsed = BatchManifest::from_json(&Json::parse(&m.to_json_string()).unwrap())
            .expect("manifest re-parses");
        assert_eq!(parsed, m);
    }

    #[test]
    fn unknown_status_and_version_are_errors() {
        let bad = Json::parse(r#"{"schema_version":99}"#).unwrap();
        assert!(BatchManifest::from_json(&bad).unwrap_err().contains("schema_version"));
        let bad = Json::parse(
            r#"{"schema_version":1,"jobs":[{"input":"x","status":"exploded"}]}"#,
        )
        .unwrap();
        assert!(BatchManifest::from_json(&bad).unwrap_err().contains("exploded"));
    }

    #[test]
    fn normalized_zeroes_every_duration() {
        let n = sample().normalized();
        assert_eq!(n.summary.duration_ns, 0);
        assert!(n.jobs.iter().all(|j| j.duration_ns == 0));
        assert_eq!(
            n.to_json_string(),
            sample().normalized().to_json_string(),
            "normalisation is deterministic"
        );
    }

    #[test]
    fn status_strings_roundtrip() {
        for s in [
            JobStatus::Ok,
            JobStatus::Degraded,
            JobStatus::Failed,
            JobStatus::Quarantined,
            JobStatus::Skipped,
        ] {
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobStatus::parse("nope"), None);
    }
}
