//! The baseline differ: compares two [`RunReport`]s and classifies
//! every difference, so `netart report diff` and the CI perf-gate can
//! fail on regressions instead of eyeballing JSON.
//!
//! Comparison semantics follow the report's own determinism split:
//!
//! * **counters, per-net effort, degradations and quality are exact**
//!   — they are deterministic for a given input, so *any* drift is
//!   surfaced (regressions fail the gate; improvements are reported
//!   and require blessing a new baseline);
//! * **phase wall times are band-tolerant** — both sides are dropped
//!   into the log-2 buckets of [`Histogram::bucket_of`] and a phase
//!   only regresses when the current time lands more than
//!   [`DiffConfig::band_buckets`] buckets above the baseline;
//! * a baseline phase with `wall_ns == 0` (a [`RunReport::normalized`]
//!   baseline, which is what `baselines/*.json` commit) opts out of
//!   time comparison entirely.

use crate::json::{json_enum, json_record, Json, JsonField};
use crate::metrics::Histogram;
use crate::report::RunReport;

/// Tunables for [`ReportDiff::diff_with`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// How many log-2 buckets above the baseline a phase wall time may
    /// land before it counts as a regression. The default of 1 allows
    /// roughly a 2–4× excursion — wide enough for shared CI runners,
    /// tight enough to catch complexity blowups.
    pub band_buckets: usize,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { band_buckets: 1 }
    }
}

json_enum! {
    /// How one differing metric affects the verdict.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DiffSeverity("diff severity") {
        /// The current run is worse; the gate fails.
        Regression = "regression",
        /// The current run is better; bless a new baseline to keep it.
        Improvement = "improvement",
        /// A difference with no quality direction (tool name, …).
        Info = "info",
    }
}

json_record! {
    /// One differing metric between baseline and current.
    #[derive(Debug, Clone)]
    pub struct DiffEntry {
        /// Dotted metric path (`quality.total_bends`,
        /// `nets.clk.nodes_expanded`, `phase.route.wall_ns`, …).
        pub metric: String,
        /// Verdict for this metric.
        pub severity: DiffSeverity,
        /// The baseline value.
        pub baseline: Json,
        /// The current value.
        pub current: Json,
        /// Human-readable explanation.
        pub note: String,
    }
}

/// The result of diffing two reports: every differing metric,
/// classified.
#[derive(Debug, Clone, Default)]
pub struct ReportDiff {
    /// All differing metrics, in comparison order.
    pub entries: Vec<DiffEntry>,
}

impl ReportDiff {
    /// Diffs `current` against `baseline` with default tolerances.
    pub fn diff(baseline: &RunReport, current: &RunReport) -> ReportDiff {
        Self::diff_with(baseline, current, DiffConfig::default())
    }

    /// Diffs `current` against `baseline` with explicit tolerances.
    pub fn diff_with(baseline: &RunReport, current: &RunReport, config: DiffConfig) -> ReportDiff {
        let mut diff = ReportDiff::default();
        diff.compare_network(baseline, current);
        diff.compare_phases(baseline, current, config);
        diff.compare_counters(baseline, current);
        diff.compare_nets(baseline, current);
        diff.compare_degradations(baseline, current);
        diff.compare_quality(baseline, current);
        diff
    }

    /// Whether any entry is a [`DiffSeverity::Regression`] — the exit
    /// code 3 condition.
    pub fn is_regression(&self) -> bool {
        self.entries
            .iter()
            .any(|e| e.severity == DiffSeverity::Regression)
    }

    /// The regressions alone, for naming offenders in output.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.severity == DiffSeverity::Regression)
    }

    /// The machine-readable diff document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("regression", self.is_regression())
            .with("entries", self.entries.to_json())
    }

    /// A short human-readable summary, one line per entry.
    pub fn render_text(&self) -> String {
        if self.entries.is_empty() {
            return "no differences".to_owned();
        }
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{:<11} {}: {} -> {} ({})\n",
                e.severity.as_str(),
                e.metric,
                e.baseline.render(),
                e.current.render(),
                e.note
            ));
        }
        out.pop();
        out
    }

    fn push(
        &mut self,
        metric: impl Into<String>,
        baseline: impl Into<Json>,
        current: impl Into<Json>,
        severity: DiffSeverity,
        note: impl Into<String>,
    ) {
        self.entries.push(DiffEntry {
            metric: metric.into(),
            baseline: baseline.into(),
            current: current.into(),
            severity,
            note: note.into(),
        });
    }

    /// An exact comparison where *any* change regresses (the metric is
    /// deterministic, so drift means the pipeline changed behaviour).
    fn exact(&mut self, metric: String, baseline: u64, current: u64, note: &str) {
        if baseline != current {
            self.push(metric, baseline, current, DiffSeverity::Regression, note);
        }
    }

    /// A directional comparison: moving toward `bad_direction` is a
    /// regression, away from it an improvement.
    fn directional(&mut self, metric: String, baseline: u64, current: u64, lower_is_better: bool) {
        if baseline == current {
            return;
        }
        let worse = (current > baseline) == lower_is_better;
        let severity = if worse {
            DiffSeverity::Regression
        } else {
            DiffSeverity::Improvement
        };
        let note = if worse { "got worse" } else { "got better" };
        self.push(metric, baseline, current, severity, note);
    }

    fn compare_network(&mut self, baseline: &RunReport, current: &RunReport) {
        let pairs = [
            ("network.modules", baseline.network.modules, current.network.modules),
            ("network.nets", baseline.network.nets, current.network.nets),
            (
                "network.system_terminals",
                baseline.network.system_terminals,
                current.network.system_terminals,
            ),
        ];
        for (metric, b, c) in pairs {
            self.exact(
                metric.to_owned(),
                b as u64,
                c as u64,
                "input sizes differ; the runs are not comparable",
            );
        }
    }

    fn compare_phases(&mut self, baseline: &RunReport, current: &RunReport, config: DiffConfig) {
        for b in &baseline.phases {
            let Some(c) = current.phases.iter().find(|p| p.name == b.name) else {
                self.push(
                    format!("phase.{}", b.name),
                    b.wall_ns,
                    Json::Null,
                    DiffSeverity::Regression,
                    "phase missing from current run",
                );
                continue;
            };
            // Allocation attribution survives normalization, so it is
            // compared whenever both sides carry it (a `null` on
            // either side — an unprofiled build — opts out).
            let alloc_pairs = [
                ("alloc_count", b.alloc_count, c.alloc_count),
                ("alloc_bytes", b.alloc_bytes, c.alloc_bytes),
                ("peak_bytes", b.peak_bytes, c.peak_bytes),
            ];
            for (member, b_val, c_val) in alloc_pairs {
                let (Some(b_val), Some(c_val)) = (b_val, c_val) else {
                    continue;
                };
                self.banded(
                    format!("phase.{}.{member}", b.name),
                    b_val,
                    c_val,
                    "allocation",
                    config,
                );
            }
            // A normalized baseline (wall_ns == 0) carries no timing
            // to compare against.
            if b.wall_ns == 0 {
                continue;
            }
            self.banded(
                format!("phase.{}.wall_ns", b.name),
                b.wall_ns,
                c.wall_ns,
                "wall time",
                config,
            );
        }
    }

    /// A band-tolerant comparison: both sides drop into the log-2
    /// buckets of [`Histogram::bucket_of`] and only an excursion of
    /// more than [`DiffConfig::band_buckets`] buckets counts (up is a
    /// regression, down an improvement).
    fn banded(&mut self, metric: String, baseline: u64, current: u64, what: &str, config: DiffConfig) {
        let b_bucket = Histogram::bucket_of(baseline);
        let c_bucket = Histogram::bucket_of(current);
        if c_bucket > b_bucket + config.band_buckets {
            self.push(
                metric,
                baseline,
                current,
                DiffSeverity::Regression,
                format!(
                    "{what} moved up {} log2 buckets (band allows {})",
                    c_bucket - b_bucket,
                    config.band_buckets
                ),
            );
        } else if b_bucket > c_bucket + config.band_buckets {
            self.push(
                metric,
                baseline,
                current,
                DiffSeverity::Improvement,
                format!("{what} moved down {} log2 buckets", b_bucket - c_bucket),
            );
        }
    }

    fn compare_counters(&mut self, baseline: &RunReport, current: &RunReport) {
        for (name, &b) in &baseline.metrics.counters {
            let c = current.metrics.counters.get(name).copied().unwrap_or(0);
            self.exact(
                format!("counters.{name}"),
                b,
                c,
                "deterministic counter drifted",
            );
        }
        for (name, &c) in &current.metrics.counters {
            if !baseline.metrics.counters.contains_key(name) {
                self.push(
                    format!("counters.{name}"),
                    Json::Null,
                    c,
                    DiffSeverity::Regression,
                    "counter absent from baseline",
                );
            }
        }
    }

    fn compare_nets(&mut self, baseline: &RunReport, current: &RunReport) {
        for b in &baseline.nets {
            let Some(c) = current.nets.iter().find(|n| n.net == b.net) else {
                self.push(
                    format!("nets.{}", b.net),
                    b.routed,
                    Json::Null,
                    DiffSeverity::Regression,
                    "net missing from current run",
                );
                continue;
            };
            if b.routed && !c.routed {
                self.push(
                    format!("nets.{}.routed", b.net),
                    true,
                    false,
                    DiffSeverity::Regression,
                    "net lost its route",
                );
            } else if !b.routed && c.routed {
                self.push(
                    format!("nets.{}.routed", b.net),
                    false,
                    true,
                    DiffSeverity::Improvement,
                    "net gained a route",
                );
            }
            if !b.over_budget && c.over_budget {
                self.push(
                    format!("nets.{}.over_budget", b.net),
                    false,
                    true,
                    DiffSeverity::Regression,
                    "net newly breaches its search budget",
                );
            }
            self.directional(
                format!("nets.{}.nodes_expanded", b.net),
                b.nodes_expanded,
                c.nodes_expanded,
                true,
            );
        }
    }

    fn compare_degradations(&mut self, baseline: &RunReport, current: &RunReport) {
        let count_by_kind = |r: &RunReport| {
            let mut counts = std::collections::BTreeMap::<String, u64>::new();
            for d in &r.degradations {
                *counts.entry(d.kind.clone()).or_insert(0) += 1;
            }
            counts
        };
        let b_counts = count_by_kind(baseline);
        let c_counts = count_by_kind(current);
        let kinds: std::collections::BTreeSet<&String> =
            b_counts.keys().chain(c_counts.keys()).collect();
        for kind in kinds {
            let b = b_counts.get(kind).copied().unwrap_or(0);
            let c = c_counts.get(kind).copied().unwrap_or(0);
            self.directional(format!("degradations.{kind}"), b, c, true);
        }
    }

    fn compare_quality(&mut self, baseline: &RunReport, current: &RunReport) {
        let b = &baseline.quality;
        let c = &current.quality;
        self.directional(
            "quality.routed_nets".to_owned(),
            b.routed_nets as u64,
            c.routed_nets as u64,
            false,
        );
        self.directional(
            "quality.unrouted_nets".to_owned(),
            b.unrouted_nets as u64,
            c.unrouted_nets as u64,
            true,
        );
        self.directional("quality.total_length".to_owned(), b.total_length, c.total_length, true);
        self.directional("quality.total_bends".to_owned(), b.total_bends, c.total_bends, true);
        self.directional("quality.crossovers".to_owned(), b.crossovers, c.crossovers, true);
        self.directional(
            "quality.branch_points".to_owned(),
            b.branch_points,
            c.branch_points,
            true,
        );
        self.directional(
            "quality.bounding_area".to_owned(),
            b.bounding_area,
            c.bounding_area,
            true,
        );
        if c.completion < b.completion {
            self.push(
                "quality.completion".to_owned(),
                b.completion,
                c.completion,
                DiffSeverity::Regression,
                "completion fraction dropped",
            );
        } else if c.completion > b.completion {
            self.push(
                "quality.completion".to_owned(),
                b.completion,
                c.completion,
                DiffSeverity::Improvement,
                "completion fraction rose",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DegradationReport, NetReport, QualityReport};

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            tool: "netart".into(),
            quality: QualityReport {
                routed_nets: 3,
                unrouted_nets: 0,
                total_length: 40,
                total_bends: 5,
                crossovers: 1,
                branch_points: 2,
                bounding_area: 100,
                completion: 1.0,
            },
            is_clean: true,
            ..RunReport::default()
        };
        r.push_phase("place", 1_000);
        r.push_phase("route", 2_000);
        r.nets.push(NetReport {
            net: "clk".into(),
            routed: true,
            prerouted: false,
            nodes_expanded: 50,
            over_budget: false,
            retried: false,
            salvage: None,
            ripup_victims: 0,
        });
        r.metrics.counters.insert("route.nets_routed".into(), 3);
        r
    }

    #[test]
    fn self_diff_is_clean() {
        let r = sample_report();
        let diff = ReportDiff::diff(&r, &r);
        assert!(!diff.is_regression());
        assert!(diff.entries.is_empty(), "{:?}", diff.entries);
        assert_eq!(diff.render_text(), "no differences");
    }

    #[test]
    fn quality_regressions_are_named() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.quality.total_bends = 9;
        current.metrics.counters.insert("route.nets_routed".into(), 2);
        let diff = ReportDiff::diff(&baseline, &current);
        assert!(diff.is_regression());
        let names: Vec<&str> = diff.regressions().map(|e| e.metric.as_str()).collect();
        assert!(names.contains(&"quality.total_bends"), "{names:?}");
        assert!(names.contains(&"counters.route.nets_routed"), "{names:?}");
    }

    #[test]
    fn improvements_do_not_fail_the_gate() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.quality.total_length = 30;
        current.nets[0].nodes_expanded = 40;
        let diff = ReportDiff::diff(&baseline, &current);
        assert!(!diff.is_regression());
        assert!(diff
            .entries
            .iter()
            .all(|e| e.severity == DiffSeverity::Improvement));
        assert_eq!(diff.entries.len(), 2);
    }

    #[test]
    fn wall_time_band_tolerates_noise_but_not_blowups() {
        let baseline = sample_report();
        let mut noisy = sample_report();
        // Same log2 bucket neighbourhood: 2000ns -> 3500ns is fine.
        noisy.phases[1].wall_ns = 3_500;
        assert!(!ReportDiff::diff(&baseline, &noisy).is_regression());
        let mut blowup = sample_report();
        // 2000ns -> 64000ns crosses more than one bucket: regression.
        blowup.phases[1].wall_ns = 64_000;
        let diff = ReportDiff::diff(&baseline, &blowup);
        assert!(diff.is_regression());
        assert_eq!(diff.regressions().next().unwrap().metric, "phase.route.wall_ns");
    }

    #[test]
    fn alloc_counters_band_like_wall_time() {
        let mut baseline = sample_report().normalized();
        baseline.phases[1].alloc_count = Some(100);
        baseline.phases[1].alloc_bytes = Some(10_000);
        baseline.phases[1].peak_bytes = Some(20_000);

        // Within the band: same bucket neighbourhood, no verdict.
        let mut noisy = baseline.clone();
        noisy.phases[1].alloc_bytes = Some(15_000);
        assert!(!ReportDiff::diff(&baseline, &noisy).is_regression());

        // A 8x allocation blowup crosses more than one bucket even on
        // a normalized (timing-free) baseline: the gate fails.
        let mut blowup = baseline.clone();
        blowup.phases[1].alloc_bytes = Some(80_000);
        let diff = ReportDiff::diff(&baseline, &blowup);
        assert!(diff.is_regression());
        assert_eq!(
            diff.regressions().next().unwrap().metric,
            "phase.route.alloc_bytes"
        );

        // Dropping well below the baseline is an improvement, not a
        // failure.
        let mut slimmer = baseline.clone();
        slimmer.phases[1].peak_bytes = Some(1_000);
        let diff = ReportDiff::diff(&baseline, &slimmer);
        assert!(!diff.is_regression());
        assert_eq!(diff.entries[0].severity, DiffSeverity::Improvement);
    }

    #[test]
    fn unprofiled_side_opts_out_of_alloc_comparison() {
        let mut baseline = sample_report();
        baseline.phases[1].alloc_bytes = Some(10_000);
        let current = sample_report(); // alloc members all None
        assert!(!ReportDiff::diff(&baseline, &current).is_regression());
        assert!(!ReportDiff::diff(&current, &baseline).is_regression());
    }

    #[test]
    fn normalized_baseline_skips_timing() {
        let baseline = sample_report().normalized();
        let mut current = sample_report();
        current.phases[1].wall_ns = u64::MAX / 2;
        assert!(!ReportDiff::diff(&baseline, &current).is_regression());
    }

    #[test]
    fn lost_route_and_new_degradation_regress() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.nets[0].routed = false;
        current.push_degradation(DegradationReport {
            kind: "net_unrouted".into(),
            net: Some("clk".into()),
            stage: None,
            routed: None,
            over_budget: None,
            nodes_expanded: None,
            detail: None,
        });
        let diff = ReportDiff::diff(&baseline, &current);
        let names: Vec<&str> = diff.regressions().map(|e| e.metric.as_str()).collect();
        assert!(names.contains(&"nets.clk.routed"), "{names:?}");
        assert!(names.contains(&"degradations.net_unrouted"), "{names:?}");
    }

    #[test]
    fn diff_json_shape() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.quality.crossovers = 5;
        let diff = ReportDiff::diff(&baseline, &current);
        let j = diff.to_json();
        assert_eq!(j.get("regression"), Some(&Json::Bool(true)));
        let entries = j.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries[0].get("metric"), Some(&Json::Str("quality.crossovers".into())));
        assert_eq!(entries[0].get("severity"), Some(&Json::Str("regression".into())));
    }
}
