//! Named counters and histograms with no global state.
//!
//! A [`MetricsSnapshot`] is a run's metrics, derived once when the
//! outcome is frozen into its run report. The split between counters
//! and histograms is semantic, not just structural: **counters hold
//! only deterministic quantities** (nets routed, nodes expanded,
//! bends, …) so two runs of the same input produce identical counter
//! maps — the property the determinism guard test pins — while
//! **histograms absorb the wall-clock observations**
//! (phase times, per-net durations) that legitimately vary.

use std::collections::BTreeMap;

use crate::json::json_record;
#[cfg(test)]
use crate::json::{Json, JsonField};

/// Log-2 bucketed histogram of `u64` observations (nanoseconds, node
/// counts). Fixed buckets keep recording allocation-free and the
/// quantile estimates deterministic for a given multiset of values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts observations with `63 - leading_zeros == i`
    /// (bucket 0 also holds the zeros).
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Index of the log-2 bucket holding `value` (0–63). Exposed so the
    /// baseline differ can band-compare wall-clock quantities the same
    /// way the histogram buckets them: two values in the same (or
    /// adjacent) bucket are "the same time" for gating purposes.
    pub fn bucket_of(value: u64) -> usize {
        63 - u64::leading_zeros(value.max(1)) as usize
    }

    /// Upper bound (inclusive) of log-2 bucket `i`: the largest value
    /// that [`Histogram::bucket_of`] maps to `i`. Saturates at
    /// `u64::MAX` for the last bucket.
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Records one observation. Public so the process-lifetime
    /// telemetry registry shares the per-run histogram core.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The raw log-2 bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Folds another histogram into this one (used to aggregate the
    /// slots of a rolling window).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation,
    /// clamped to nothing — callers clamp to [`Histogram::max`] when
    /// they want an attainable value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50).min(self.max),
            p90: self.quantile(0.90).min(self.max),
            p95: self.quantile(0.95).min(self.max),
        }
    }
}

json_record! {
    /// The exported shape of one histogram: totals plus coarse quantile
    /// bounds (bucket upper limits, clamped to the observed maximum).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct HistogramSummary {
        /// Observations recorded.
        pub count: u64,
        /// Sum of all observations.
        pub sum: u64,
        /// Smallest observation (0 when empty).
        pub min: u64,
        /// Largest observation.
        pub max: u64,
        /// Upper bound on the median observation.
        pub p50: u64,
        /// Upper bound on the 90th-percentile observation.
        pub p90: u64,
        /// Upper bound on the 95th-percentile observation.
        pub p95: u64,
    }
}

impl HistogramSummary {
    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

json_record! {
    /// A run's metrics: plain maps, ready for comparison or export.
    /// Reading one back skips non-numeric counters and malformed
    /// histograms rather than rejecting them.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MetricsSnapshot {
        /// Counter values by name. Deterministic for a given input.
        pub counters: BTreeMap<String, u64>,
        /// Histogram summaries by name. Timing histograms vary run to run.
        pub histograms: BTreeMap<String, HistogramSummary>,
    }
}

impl MetricsSnapshot {
    /// Summarises `values` as the named histogram, replacing any
    /// earlier one. An empty sequence leaves no histogram at all.
    pub fn observe(&mut self, name: &str, values: impl IntoIterator<Item = u64>) {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        if h.count > 0 {
            self.histograms.insert(name.to_owned(), h.summary());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observing_nothing_leaves_no_histogram() {
        let mut m = MetricsSnapshot::default();
        m.observe("absent", None);
        m.observe("empty", Vec::new());
        assert!(m.histograms.is_empty());
        m.observe("one", Some(0));
        assert_eq!(m.histograms["one"].count, 1);
    }

    #[test]
    fn histogram_summary_totals() {
        let mut m = MetricsSnapshot::default();
        m.observe("lat", [1u64, 2, 3, 100]);
        let s = m.histograms["lat"];
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 26.5).abs() < 1e-9);
        assert!(s.p50 >= 2 && s.p50 <= s.max);
        assert!(s.p95 >= s.p50);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // bucket 3, upper bound 15
        }
        h.record(1000); // bucket 9
        let s = h.summary();
        assert_eq!(s.p50, 15);
        assert_eq!(s.p95, 15);
        assert_eq!(s.max, 1000);
        assert_eq!(Histogram::default().summary(), HistogramSummary::default());
    }

    #[test]
    fn zero_observation_lands_in_bucket_zero() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.summary().min, 0);
        assert_eq!(h.summary().p50, 0, "bucket upper bound clamped to max");
    }

    #[test]
    fn snapshots_of_equal_runs_compare_equal() {
        let run = || {
            let mut m = MetricsSnapshot::default();
            m.counters.insert("a".to_owned(), 1);
            m.observe("h", [42]);
            m
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_json_shape() {
        let mut m = MetricsSnapshot::default();
        m.counters.insert("c".to_owned(), 2);
        m.observe("h", [5]);
        let j = m.to_json();
        assert_eq!(j.get("counters").and_then(|c| c.get("c")), Some(&Json::Uint(2)));
        let h = j.get("histograms").and_then(|h| h.get("h")).expect("histogram");
        assert_eq!(h.get("count"), Some(&Json::Uint(1)));
        assert_eq!(h.get("sum"), Some(&Json::Uint(5)));
    }
}
