//! Golden-file test pinning the `ServeStats` JSON schema.
//!
//! The rendered stats document for a fully-populated, fixed-value
//! [`ServeStats`] must match `tests/golden/serve_stats.json` byte for
//! byte, mirroring the `RunReport` pin in `golden_schema.rs`. Additive
//! changes regenerate the golden with `UPDATE_GOLDEN=1 cargo test -p
//! netart-obs --test golden_serve_schema`; renames and removals also
//! require bumping [`netart_obs::SERVE_SCHEMA_VERSION`].

mod support;

use netart_obs::{Json, ServeStats};

/// Stats exercising every member of the schema with fixed values.
fn exemplar() -> ServeStats {
    ServeStats {
        requests: 100,
        clean: 80,
        degraded: 7,
        failed: 5,
        shed: 3,
        too_large: 2,
        drain_rejects: 1,
        deadline_cancelled: 4,
        panics: 1,
        cache_hits: 40,
        cache_misses: 52,
        coalesced: 8,
        cache_bytes: 65_536,
        cache_entries: 12,
        in_flight: 2,
        queued: 5,
        shard_live: 4,
        shard_restarts: 9,
        win_latency_count: 31,
        win_latency_p50_ns: 2_097_151,
        win_latency_p90_ns: 8_388_607,
        win_latency_p99_ns: 33_554_431,
    }
}

#[test]
fn serve_stats_match_golden() {
    support::assert_golden(
        "serve_stats.json",
        &exemplar().to_json_string(),
        "SERVE_SCHEMA_VERSION",
    );
}

#[test]
fn stats_roundtrip_through_json() {
    let original = exemplar();
    let text = original.to_json_string();
    let parsed = Json::parse(&text).expect("rendered stats parse");
    let read_back = ServeStats::from_json(&parsed).expect("stats read back");
    assert_eq!(read_back, original);
    assert_eq!(read_back.to_json_string(), text, "roundtrip is byte-stable");
}
