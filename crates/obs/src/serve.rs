//! The machine-readable serve response schema.
//!
//! `netart serve` answers every diagram request with a
//! [`ServeReport`]: the artifact id and bodies, how the cache treated
//! the request, and the same status taxonomy the CLI's exit codes
//! carry (`clean`/`degraded`/`failed` mirroring exit `0`/`2`/`1`),
//! with the pipeline's full [`RunReport`] inline. Like the run report
//! and batch manifest, the shape is versioned and additions are
//! allowed within a version; renames and removals require a bump.
//!
//! [`ServeStats`] is the `/stats` endpoint's body: the service's
//! lifetime counters (sheds, cache hits, coalesced requests, panics
//! contained) plus point-in-time gauges. Counters are cumulative and
//! monotone; gauges are racy snapshots.

use crate::json::{json_enum, json_record, JsonField};
use crate::report::RunReport;

/// Version of the serve response shape. Bump when members are
/// renamed, removed, or change meaning.
pub const SERVE_SCHEMA_VERSION: u32 = 1;

json_enum! {
    /// The response-level status taxonomy, mirroring the CLI exit codes:
    /// clean run → `0`, degraded-but-emitted → `2`, failed → `1`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ServeStatus("serve status") {
        /// The pipeline ran clean; artifacts are present.
        Clean = "clean",
        /// The pipeline emitted artifacts but needed fallbacks (salvage,
        /// doctor repairs, a deadline cancellation mid-route, …).
        Degraded = "degraded",
        /// No artifacts: the input was rejected or the pipeline failed.
        Failed = "failed",
    }
}

json_enum! {
    /// How the artifact cache treated one request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CacheOutcome("cache outcome") {
        /// Served from the cache without recomputing.
        Hit = "hit",
        /// Computed fresh (and, when cacheable, inserted).
        Miss = "miss",
        /// Coalesced onto a concurrent identical request's computation
        /// (single-flight follower).
        Coalesced = "coalesced",
    }
}

json_record! {
    document(version: SERVE_SCHEMA_VERSION, oldest: SERVE_SCHEMA_VERSION, noun: "serve report")
    /// One diagram request's response body.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServeReport {
        /// Response status (`clean`/`degraded`/`failed`).
        pub status: ServeStatus,
        /// How the cache treated the request.
        pub cache: CacheOutcome,
        /// The content address of the artifact: a stable hash of the
        /// doctored-normalized input plus the rendering options. Two
        /// requests with the same artifact id receive byte-identical
        /// bodies. Empty on failed requests.
        pub artifact: String,
        /// The ESCHER diagram text. Empty on failed requests.
        pub escher: String,
        /// The SVG rendering. Empty on failed requests.
        pub svg: String,
        /// The failure message, for failed requests.
        pub error: Option<String>,
        /// The pipeline's run report, when one was produced.
        pub report: Option<RunReport>,
    }
}

impl ServeReport {
    /// A failed response carrying only an error message.
    pub fn failure(message: impl Into<String>) -> Self {
        ServeReport {
            status: ServeStatus::Failed,
            cache: CacheOutcome::Miss,
            artifact: String::new(),
            escher: String::new(),
            svg: String::new(),
            error: Some(message.into()),
            report: None,
        }
    }
}

json_record! {
    document(version: SERVE_SCHEMA_VERSION, oldest: SERVE_SCHEMA_VERSION, noun: "serve stats")
    /// The `/stats` endpoint's body: lifetime counters, read back
    /// from the `/metrics` registry, and current gauges of one serve
    /// process.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ServeStats {
        /// Resolved `POST /v1/diagram` requests, `413` refusals aside.
        pub requests: u64,
        /// Responses per status.
        pub clean: u64,
        /// See [`ServeStatus::Degraded`].
        pub degraded: u64,
        /// See [`ServeStatus::Failed`].
        pub failed: u64,
        /// Requests shed with `429` because the queue was full.
        pub shed: u64,
        /// Requests refused with `413` for an oversized body.
        pub too_large: u64,
        /// Requests refused with `503` during drain.
        pub drain_rejects: u64,
        /// Requests whose deadline cancelled the pipeline mid-run.
        pub deadline_cancelled: u64,
        /// Requests whose handler panicked (contained, answered `500`).
        pub panics: u64,
        /// Artifact-cache hits.
        pub cache_hits: u64,
        /// Artifact-cache misses (fresh computes).
        pub cache_misses: u64,
        /// Requests coalesced onto a concurrent identical computation.
        pub coalesced: u64,
        /// Artifact-cache bytes resident (gauge).
        pub cache_bytes: u64,
        /// Artifact-cache entries resident (gauge).
        pub cache_entries: u64,
        /// Requests executing right now (gauge).
        pub in_flight: u64,
        /// Requests admitted but not yet started (gauge).
        pub queued: u64,
        /// Sharded serving only: shards currently live, per the latest
        /// supervisor broadcast (gauge; 0 when not sharded).
        pub shard_live: u64,
        /// Sharded serving only: cumulative worker respawns across the
        /// fleet (0 when not sharded).
        pub shard_restarts: u64,
        /// Requests observed inside the rolling latency window.
        pub win_latency_count: u64,
        /// Windowed median request latency (bucket upper bound, ns).
        pub win_latency_p50_ns: u64,
        /// Windowed 90th-percentile request latency (ns).
        pub win_latency_p90_ns: u64,
        /// Windowed 99th-percentile request latency (ns).
        pub win_latency_p99_ns: u64,
    }
}

json_record! {
    /// One line of the `--access-log`, written as each diagram request
    /// resolves: identity (`rid`, `artifact`), verdict (`outcome`,
    /// `http_status`, `cache`, `deadline_cancelled`) and cost
    /// (`latency_ns`, per-phase wall times). Strip the `*_ns` members
    /// and single-worker replays of the same request sequence compare
    /// byte-identical. The line carries no version of its own; its
    /// members change under the rules of [`SERVE_SCHEMA_VERSION`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AccessRecord {
        /// The request id (`r000000`, or `s{shard}-r{seq}` when sharded).
        pub rid: String,
        /// A [`ServeStatus`] string, or how the request was turned away
        /// before a status existed: `shed`, `drain_reject`, `mem_reject`,
        /// `panic`.
        pub outcome: String,
        /// The HTTP status code answered.
        pub http_status: u32,
        /// A [`CacheOutcome`] string, or `none` when the cache was never
        /// consulted.
        pub cache: String,
        /// The artifact id; empty when the request never got one.
        pub artifact: String,
        /// Whether the request deadline cancelled the pipeline mid-run.
        pub deadline_cancelled: bool,
        /// Wall time from the request read to the response framed.
        pub latency_ns: u64,
        /// The pipeline's phases, when a run report exists.
        pub phases: Vec<AccessPhase>,
    }

    /// One pipeline phase's wall time in an [`AccessRecord`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AccessPhase {
        /// The phase name, as in the run report.
        pub name: String,
        /// The phase's wall time.
        pub wall_ns: u64,
    }
}

impl AccessRecord {
    /// The record of request `rid` before it resolves: outcome
    /// `failed`, cache `none`, everything else empty.
    pub fn new(rid: String) -> Self {
        AccessRecord {
            rid,
            outcome: ServeStatus::Failed.as_str().to_owned(),
            http_status: 0,
            cache: "none".to_owned(),
            artifact: String::new(),
            deadline_cancelled: false,
            latency_ns: 0,
            phases: Vec::new(),
        }
    }

    /// Takes the phase wall times of `report`.
    pub fn set_phases(&mut self, report: &RunReport) {
        self.phases = report
            .phases
            .iter()
            .map(|p| AccessPhase {
                name: p.name.clone(),
                wall_ns: p.wall_ns,
            })
            .collect();
    }

    /// The record as one JSON line, without the newline.
    pub fn to_json_line(&self) -> String {
        JsonField::to_json(self).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> ServeReport {
        ServeReport {
            status: ServeStatus::Degraded,
            cache: CacheOutcome::Miss,
            artifact: "a1b2c3d4e5f60718".to_owned(),
            escher: "module top 10 10\n".to_owned(),
            svg: "<svg/>".to_owned(),
            error: None,
            report: Some(RunReport {
                tool: "netart".to_owned(),
                is_clean: false,
                ..RunReport::default()
            }),
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let original = sample();
        let text = original.to_json_string();
        let parsed = Json::parse(&text).expect("rendered report parses");
        let read_back = ServeReport::from_json(&parsed).expect("report reads back");
        assert_eq!(read_back, original);
        assert_eq!(read_back.to_json_string(), text, "roundtrip is byte-stable");
    }

    #[test]
    fn failure_report_is_failed_with_empty_artifacts() {
        let r = ServeReport::failure("doctor rejected the netlist");
        assert_eq!(r.status, ServeStatus::Failed);
        assert!(r.artifact.is_empty() && r.escher.is_empty() && r.svg.is_empty());
        let text = r.to_json_string();
        let read_back = ServeReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(read_back, r);
    }

    #[test]
    fn unknown_status_and_version_are_errors() {
        let bad = Json::parse(r#"{"schema_version":99}"#).unwrap();
        assert!(ServeReport::from_json(&bad).unwrap_err().contains("schema_version"));
        let bad =
            Json::parse(r#"{"schema_version":1,"status":"exploded","cache":"hit"}"#).unwrap();
        assert!(ServeReport::from_json(&bad).unwrap_err().contains("exploded"));
        let bad =
            Json::parse(r#"{"schema_version":1,"status":"clean","cache":"warmish"}"#).unwrap();
        assert!(ServeReport::from_json(&bad).unwrap_err().contains("warmish"));
    }

    #[test]
    fn status_and_cache_strings_roundtrip() {
        for s in [ServeStatus::Clean, ServeStatus::Degraded, ServeStatus::Failed] {
            assert_eq!(ServeStatus::parse(s.as_str()), Some(s));
        }
        for c in [CacheOutcome::Hit, CacheOutcome::Miss, CacheOutcome::Coalesced] {
            assert_eq!(CacheOutcome::parse(c.as_str()), Some(c));
        }
        assert_eq!(ServeStatus::parse("nope"), None);
        assert_eq!(CacheOutcome::parse("nope"), None);
    }

    #[test]
    fn stats_roundtrip_with_missing_fields_reading_zero() {
        let stats = ServeStats {
            requests: 10,
            clean: 6,
            degraded: 2,
            failed: 1,
            shed: 1,
            cache_hits: 4,
            coalesced: 3,
            ..ServeStats::default()
        };
        let read_back =
            ServeStats::from_json(&Json::parse(&stats.to_json_string()).unwrap()).unwrap();
        assert_eq!(read_back, stats);
        let sparse = Json::parse(r#"{"schema_version":1,"requests":3}"#).unwrap();
        let read_back = ServeStats::from_json(&sparse).unwrap();
        assert_eq!(read_back.requests, 3);
        assert_eq!(read_back.shed, 0, "missing counters read as zero");
    }

    #[test]
    fn stats_require_a_supported_schema_version() {
        let missing = Json::parse(r#"{"requests":3}"#).unwrap();
        assert!(ServeStats::from_json(&missing)
            .unwrap_err()
            .contains("missing schema_version"));
        let wrong = Json::parse(r#"{"schema_version":99,"requests":3}"#).unwrap();
        assert!(ServeStats::from_json(&wrong)
            .unwrap_err()
            .contains("unsupported schema_version 99"));
    }
}
