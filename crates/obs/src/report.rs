//! The machine-readable run report.
//!
//! A [`RunReport`] is the stable JSON contract between the pipeline
//! and everything downstream: the `--report-json` CLI flag, the bench
//! harness's `BENCH_*.json` files, and CI validation. The shape is
//! versioned by [`SCHEMA_VERSION`] and pinned by a golden-file test;
//! adding members is allowed within a version, renaming or removing
//! them requires a bump.

use crate::json::json_record;
use crate::metrics::MetricsSnapshot;

/// Version of the report shape. Bump when members are renamed,
/// removed, or change meaning.
///
/// History: **1** — initial shape; **2** — phase entries carry
/// histogram quantiles (`p50_ns`/`p90_ns`/`max_ns`) and histogram
/// summaries gained `p90`; **3** — phase entries carry allocation
/// attribution (`alloc_count`/`alloc_bytes`/`peak_bytes`, `null`
/// unless the binary was built with the `alloc-profile` feature).
/// [`RunReport::from_json`] reads every version from 1 up: older
/// reports simply lack the later members.
pub const SCHEMA_VERSION: u32 = 3;

json_record! {
    /// Size of the input network.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct NetworkReport {
        /// Module instances.
        pub modules: usize,
        /// Nets.
        pub nets: usize,
        /// System terminals.
        pub system_terminals: usize,
    }

    /// One pipeline phase and its wall time.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct PhaseReport {
        /// Phase name: `parse`, `place`, `route`, `emit`.
        pub name: String,
        /// Wall-clock nanoseconds spent in the phase.
        pub wall_ns: u64,
        /// Median of the phase's timing histogram (`phase.<name>_ns`),
        /// when the run recorded one.
        pub p50_ns: Option<u64>,
        /// 90th percentile of the phase's timing histogram.
        pub p90_ns: Option<u64>,
        /// Largest observation in the phase's timing histogram.
        pub max_ns: Option<u64>,
        /// Heap allocations attributed to the phase (`alloc-profile`
        /// builds only; `None` otherwise).
        pub alloc_count: Option<u64>,
        /// Bytes allocated while the phase was current.
        pub alloc_bytes: Option<u64>,
        /// Peak live heap bytes observed while the phase was current.
        pub peak_bytes: Option<u64>,
    }

    /// Router effort and outcome for one net (the per-net span data,
    /// frozen).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NetReport {
        /// The net's name.
        pub net: String,
        /// Whether the net ended with a real route.
        pub routed: bool,
        /// Whether the route was taken verbatim from the input diagram.
        pub prerouted: bool,
        /// Search nodes expanded on this net across all passes.
        pub nodes_expanded: u64,
        /// Whether any pass breached the net's budget.
        pub over_budget: bool,
        /// Whether the claim-lifted retry pass ran for this net.
        pub retried: bool,
        /// Salvage-cascade stage that settled the net, if any:
        /// `rip_up_retry`, `lee_fallback` or `ghost_wire`.
        pub salvage: Option<String>,
        /// Routed victims ripped up while salvaging this net.
        pub ripup_victims: u32,
    }

    /// One degradation with its context — not just the variant, but which
    /// net, at which stage, and in what budget state it happened.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DegradationReport {
        /// Kind: `placement_recovered`, `routing_aborted`, `net_salvaged`,
        /// `net_unrouted`, `doctor_repair`, `parse_recovered`,
        /// `emit_retried`, `deadline_cancelled`, `flight_dump_failed`.
        pub kind: String,
        /// The net involved, for per-net kinds.
        pub net: Option<String>,
        /// The salvage stage reached (`net_salvaged` only).
        pub stage: Option<String>,
        /// Whether a real route resulted (`net_salvaged` only).
        pub routed: Option<bool>,
        /// Whether the original failure was a budget breach.
        pub over_budget: Option<bool>,
        /// Search nodes spent on the net before it was given up on.
        pub nodes_expanded: Option<u64>,
        /// Free-form detail (panic message for phase-level kinds).
        pub detail: Option<String>,
    }

    /// Final diagram quality, the quantities of the paper's §4.4 and
    /// table 6.1.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct QualityReport {
        /// Nets with a routed path.
        pub routed_nets: usize,
        /// Nets without a routed path.
        pub unrouted_nets: usize,
        /// Sum of wire lengths over all routed nets.
        pub total_length: u64,
        /// Sum of bends over all routed nets.
        pub total_bends: u64,
        /// Crossing points between different nets.
        pub crossovers: u64,
        /// Branching nodes over all routed nets.
        pub branch_points: u64,
        /// Area of the placement bounding box.
        pub bounding_area: u64,
        /// Fraction of nets routed, in `[0, 1]`.
        pub completion: f64,
    }

    document(version: SCHEMA_VERSION, oldest: 1, noun: "report")
    /// Everything one pipeline run reports, in a stable JSON shape.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RunReport {
        /// Which tool produced the report (`netart`, `eureka`, a bench
        /// label, …).
        pub tool: String,
        /// Input network size.
        pub network: NetworkReport,
        /// Phases in execution order with wall times.
        pub phases: Vec<PhaseReport>,
        /// Per-net router records, in net-definition order.
        pub nets: Vec<NetReport>,
        /// Everything that went wrong without stopping the run.
        pub degradations: Vec<DegradationReport>,
        /// Final diagram quality.
        pub quality: QualityReport,
        /// The run's metrics snapshot.
        pub metrics: MetricsSnapshot,
        /// `true` when the run needed no fallbacks at all.
        pub is_clean: bool,
    }
}

impl RunReport {
    /// Adds a phase at the front (for work that ran before the
    /// pipeline's own phases, like CLI parsing).
    pub fn push_phase_front(&mut self, name: &str, wall_ns: u64) {
        self.phases.insert(
            0,
            PhaseReport {
                name: name.to_owned(),
                wall_ns,
                ..PhaseReport::default()
            },
        );
    }

    /// Adds a phase at the back (like CLI emit).
    pub fn push_phase(&mut self, name: &str, wall_ns: u64) {
        self.phases.push(PhaseReport {
            name: name.to_owned(),
            wall_ns,
            ..PhaseReport::default()
        });
    }

    /// Fills each phase's quantile members from the matching
    /// `phase.<name>_ns` histogram in the report's metrics snapshot.
    /// Phases without a histogram (CLI-added `parse`/`emit`) keep
    /// `None`.
    pub fn attach_phase_quantiles(&mut self) {
        for phase in &mut self.phases {
            if let Some(h) = self.metrics.histograms.get(&format!("phase.{}_ns", phase.name)) {
                phase.p50_ns = Some(h.p50);
                phase.p90_ns = Some(h.p90);
                phase.max_ns = Some(h.max);
            }
        }
    }

    /// Records a degradation discovered outside the core pipeline
    /// (doctor repairs, parse retries, emit retries). A run with any
    /// degradation is by definition not clean, so this also clears
    /// [`RunReport::is_clean`] — keeping the report's invariant
    /// `is_clean == degradations.is_empty()` intact for CI.
    pub fn push_degradation(&mut self, degradation: DegradationReport) {
        self.is_clean = false;
        self.degradations.push(degradation);
    }

    /// The wall time of a named phase, if present.
    pub fn phase_ns(&self, name: &str) -> Option<u64> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.wall_ns)
    }

    /// The report with every wall-clock quantity zeroed: phase times
    /// and quantiles cleared and `*_ns` histograms dropped. What
    /// remains is bit-deterministic for a given input, which is what
    /// the committed `baselines/*.json` store — counters, per-net
    /// effort, degradations, quality, and allocation attribution
    /// survive; timings do not.
    pub fn normalized(&self) -> RunReport {
        let mut report = self.clone();
        for phase in &mut report.phases {
            phase.wall_ns = 0;
            phase.p50_ns = None;
            phase.p90_ns = None;
            phase.max_ns = None;
        }
        report.metrics.histograms.retain(|name, _| !name.ends_with("_ns"));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn phase_helpers_keep_order() {
        let mut r = RunReport {
            tool: "netart".into(),
            ..RunReport::default()
        };
        r.push_phase("place", 10);
        r.push_phase("route", 20);
        r.push_phase_front("parse", 5);
        r.push_phase("emit", 1);
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["parse", "place", "route", "emit"]);
        assert_eq!(r.phase_ns("route"), Some(20));
        assert_eq!(r.phase_ns("nope"), None);
    }

    #[test]
    fn json_has_versioned_top_level() {
        let r = RunReport {
            tool: "eureka".into(),
            is_clean: true,
            ..RunReport::default()
        };
        let j = r.to_json();
        assert_eq!(j.get("schema_version"), Some(&Json::Uint(u64::from(SCHEMA_VERSION))));
        assert_eq!(j.get("tool"), Some(&Json::Str("eureka".into())));
        assert_eq!(j.get("is_clean"), Some(&Json::Bool(true)));
        for key in ["network", "phases", "nets", "degradations", "quality", "metrics"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn v3_alloc_members_round_trip() {
        let mut r = RunReport {
            tool: "netart".into(),
            ..RunReport::default()
        };
        r.push_phase("route", 9);
        r.phases[0].alloc_count = Some(41);
        r.phases[0].alloc_bytes = Some(1_024);
        r.phases[0].peak_bytes = Some(4_096);
        let rendered = r.to_json().render();
        assert!(rendered.contains(r#""alloc_bytes":1024"#), "{rendered}");
        let back = RunReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.phases[0].alloc_count, Some(41));
        assert_eq!(back.phases[0].alloc_bytes, Some(1_024));
        assert_eq!(back.phases[0].peak_bytes, Some(4_096));
        // Normalization zeroes timings but keeps the (deterministic)
        // allocation attribution.
        let normal = back.normalized();
        assert_eq!(normal.phases[0].wall_ns, 0);
        assert_eq!(normal.phases[0].alloc_bytes, Some(1_024));
    }

    #[test]
    fn unprofiled_phases_render_null_alloc_members() {
        let mut r = RunReport::default();
        r.push_phase("place", 1);
        let rendered = r.to_json().render();
        assert!(rendered.contains(r#""alloc_count":null"#), "{rendered}");
        assert!(rendered.contains(r#""peak_bytes":null"#), "{rendered}");
    }

    #[test]
    fn optional_members_render_as_null() {
        let r = RunReport {
            degradations: vec![DegradationReport {
                kind: "net_unrouted".into(),
                net: Some("clk".into()),
                stage: None,
                routed: None,
                over_budget: None,
                nodes_expanded: None,
                detail: None,
            }],
            ..RunReport::default()
        };
        let rendered = r.to_json().render();
        assert!(rendered.contains(r#""kind":"net_unrouted""#), "{rendered}");
        assert!(rendered.contains(r#""stage":null"#), "{rendered}");
    }
}
