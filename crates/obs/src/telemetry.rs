//! The live telemetry registry behind `netart serve`'s `/metrics` and
//! `/stats` endpoints.
//!
//! Where a [`MetricsSnapshot`](crate::MetricsSnapshot) is per-run and
//! derived in the run report, a [`Telemetry`] lives for the whole
//! process and is shared across threads: monotone counters (optionally
//! labelled), gauges, and histograms that keep **two** views of every
//! series — a lifetime [`Histogram`] whose buckets only ever grow (what
//! Prometheus exposition requires of a `histogram` type) and a rolling
//! ring of time slots whose aggregate answers "what were the quantiles
//! over the last minute" for `/stats`. `/stats` reads its counters
//! from the same series `/metrics` renders.
//!
//! The exposition is the hand-rolled Prometheus text format (version
//! `0.0.4`): `# TYPE` lines, `_total` counters, cumulative `le`
//! buckets with `+Inf`, `_sum` and `_count`. No dependencies, same as
//! the rest of the repo.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Histogram;

/// How many ring slots a rolling histogram keeps.
const WINDOW_SLOTS: usize = 6;

/// How long one ring slot covers, in seconds. Six slots of ten
/// seconds: the window is "roughly the last minute".
const SLOT_SECONDS: u64 = 10;

/// One histogram series: the monotone lifetime view plus the rolling
/// window ring.
#[derive(Debug, Clone, Default)]
pub struct RollingHistogram {
    lifetime: Histogram,
    ring: [Histogram; WINDOW_SLOTS],
    /// The epoch (elapsed-seconds / slot-seconds) the ring head is at.
    head_epoch: u64,
}

impl RollingHistogram {
    /// Records one observation at the given epoch (slot index of
    /// wall-clock time). Slots older than the window are cleared as
    /// time advances; the lifetime histogram only grows.
    pub fn record_at(&mut self, epoch: u64, value: u64) {
        self.rotate_to(epoch);
        self.lifetime.record(value);
        self.ring[(epoch as usize) % WINDOW_SLOTS].record(value);
    }

    /// The monotone lifetime histogram (for exposition).
    pub fn lifetime(&self) -> &Histogram {
        &self.lifetime
    }

    /// The aggregate of the ring at the given epoch: everything
    /// observed in the last `WINDOW_SLOTS * SLOT_SECONDS` seconds.
    pub fn window_at(&mut self, epoch: u64) -> Histogram {
        self.rotate_to(epoch);
        let mut agg = Histogram::default();
        for slot in &self.ring {
            agg.merge(slot);
        }
        agg
    }

    fn rotate_to(&mut self, epoch: u64) {
        if epoch <= self.head_epoch {
            return;
        }
        let advanced = epoch - self.head_epoch;
        if advanced as usize >= WINDOW_SLOTS {
            self.ring = Default::default();
        } else {
            for e in (self.head_epoch + 1)..=epoch {
                self.ring[(e as usize) % WINDOW_SLOTS] = Histogram::default();
            }
        }
        self.head_epoch = epoch;
    }
}

/// The windowed quantiles `/stats` reports: counts plus bucket-bound
/// percentiles, clamped to the observed maximum so they are attainable
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowSummary {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of the windowed observations.
    pub sum: u64,
    /// Upper bound on the windowed median.
    pub p50: u64,
    /// Upper bound on the windowed 90th percentile.
    pub p90: u64,
    /// Upper bound on the windowed 99th percentile.
    pub p99: u64,
}

impl WindowSummary {
    fn of(h: &Histogram) -> WindowSummary {
        WindowSummary {
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile(0.50).min(h.max()),
            p90: h.quantile(0.90).min(h.max()),
            p99: h.quantile(0.99).min(h.max()),
        }
    }
}

/// A counter or gauge series: one value per label set (the empty label
/// set for plain series). Keys are rendered label strings
/// (`outcome="clean"`), kept sorted by the map for deterministic
/// exposition.
type LabelledSeries = BTreeMap<String, u64>;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, LabelledSeries>,
    gauges: BTreeMap<String, LabelledSeries>,
    histograms: BTreeMap<String, RollingHistogram>,
}

/// A process-lifetime, thread-safe metrics registry with Prometheus
/// text exposition.
///
/// # Examples
///
/// ```
/// let t = netart_obs::Telemetry::new();
/// t.inc("requests_total", &[("outcome", "clean")], 1);
/// t.set_gauge("queue_depth", 3);
/// t.observe("latency_ns", 1_500);
/// let text = t.render_prometheus();
/// assert!(text.contains("# TYPE requests_total counter"));
/// assert!(text.contains("requests_total{outcome=\"clean\"} 1"));
/// assert!(text.contains("queue_depth 3"));
/// assert!(text.contains("latency_ns_count 1"));
/// ```
pub struct Telemetry {
    inner: Mutex<Inner>,
    born: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty registry; the rolling-window clock starts now.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Mutex::new(Inner::default()),
            born: Instant::now(),
        }
    }

    fn epoch(&self) -> u64 {
        self.born.elapsed().as_secs() / SLOT_SECONDS
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry only means a panic mid-record; the maps
        // are still structurally sound, so keep serving metrics.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `by` to the counter named `name` with the given labels
    /// (pass `&[]` for an unlabelled counter). Counters are monotone;
    /// there is deliberately no way to decrement or reset one.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let key = render_labels(labels);
        let mut inner = self.lock();
        *inner
            .counters
            .entry(name.to_owned())
            .or_default()
            .entry(key)
            .or_insert(0) += by;
    }

    /// Sets the gauge named `name` to `value`. Gauges are racy
    /// point-in-time snapshots, typically set just before a scrape.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.set_gauge_labelled(name, &[], value);
    }

    /// Sets a labelled gauge, as the `netart_build_info{version,git} 1`
    /// info-metric idiom needs. Pass `&[]` for a plain gauge.
    pub fn set_gauge_labelled(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = render_labels(labels);
        self.lock()
            .gauges
            .entry(name.to_owned())
            .or_default()
            .insert(key, value);
    }

    /// Records one observation into the named rolling histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let epoch = self.epoch();
        self.lock()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record_at(epoch, value);
    }

    /// The current value of a labelled counter (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = render_labels(labels);
        self.lock()
            .counters
            .get(name)
            .and_then(|series| series.get(&key))
            .copied()
            .unwrap_or(0)
    }

    /// The sum of a counter over all its label sets (0 when absent).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .get(name)
            .map_or(0, |series| series.values().sum())
    }

    /// The rolling-window quantiles of the named histogram (all zeros
    /// when the series does not exist or the window is empty).
    pub fn window_summary(&self, name: &str) -> WindowSummary {
        let epoch = self.epoch();
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => WindowSummary::of(&h.window_at(epoch)),
            None => WindowSummary::default(),
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (`text/plain; version=0.0.4`). Counters come out as
    /// `counter` families, gauges as `gauge`, histograms as cumulative
    /// `le`-bucket `histogram` families built on the lifetime view (so
    /// every bucket count is monotone scrape over scrape).
    pub fn render_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, series) in &inner.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            for (labels, value) in series {
                if labels.is_empty() {
                    let _ = writeln!(out, "{name} {value}");
                } else {
                    let _ = writeln!(out, "{name}{{{labels}}} {value}");
                }
            }
        }
        for (name, series) in &inner.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, value) in series {
                if labels.is_empty() {
                    let _ = writeln!(out, "{name} {value}");
                } else {
                    let _ = writeln!(out, "{name}{{{labels}}} {value}");
                }
            }
        }
        for (name, series) in &inner.histograms {
            let h = series.lifetime();
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            let buckets = h.buckets();
            // Every log-2 bucket up to the highest one ever used plus
            // one, so the layout is stable once observations arrive
            // and short for idle series.
            let top = buckets
                .iter()
                .rposition(|&n| n > 0)
                .map_or(0, |i| (i + 1).min(63));
            for (i, &n) in buckets.iter().enumerate().take(top + 1) {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    Histogram::bucket_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// Renders a label set as it appears between the exposition braces:
/// `key="value",key2="value2"`, values escaped per the format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let t = Telemetry::new();
        t.inc("req_total", &[("outcome", "clean")], 1);
        t.inc("req_total", &[("outcome", "clean")], 2);
        t.inc("req_total", &[("outcome", "failed")], 1);
        t.inc("plain_total", &[], 5);
        assert_eq!(t.counter("req_total", &[("outcome", "clean")]), 3);
        assert_eq!(t.counter("req_total", &[("outcome", "failed")]), 1);
        assert_eq!(t.counter("plain_total", &[]), 5);
        assert_eq!(t.counter("absent_total", &[]), 0);
        assert_eq!(t.counter_sum("req_total"), 4);
        assert_eq!(t.counter_sum("absent_total"), 0);
    }

    #[test]
    fn exposition_has_types_labels_and_cumulative_buckets() {
        let t = Telemetry::new();
        t.inc("req_total", &[("outcome", "clean")], 2);
        t.set_gauge("depth", 4);
        for v in [1u64, 3, 3, 200] {
            t.observe("lat_ns", v);
        }
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE req_total counter"), "{text}");
        assert!(text.contains("req_total{outcome=\"clean\"} 2"), "{text}");
        assert!(text.contains("# TYPE depth gauge\ndepth 4"), "{text}");
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        // Cumulative buckets: le="1" sees one observation, le="3" all
        // three small ones, +Inf everything.
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_ns_sum 207"), "{text}");
        assert!(text.contains("lat_ns_count 4"), "{text}");

        // Bucket counts are monotone non-decreasing down the family.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn labelled_gauges_render_like_info_metrics() {
        let t = Telemetry::new();
        t.set_gauge_labelled(
            "netart_build_info",
            &[("version", "1.2.3"), ("git", "unknown")],
            1,
        );
        t.set_gauge("netart_serve_start_time_seconds", 1_700_000_000);
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE netart_build_info gauge"), "{text}");
        assert!(
            text.contains("netart_build_info{version=\"1.2.3\",git=\"unknown\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("netart_serve_start_time_seconds 1700000000"),
            "{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            render_labels(&[("k", "a\"b\\c\nd")]),
            "k=\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn rolling_window_forgets_old_slots_but_lifetime_does_not() {
        let mut h = RollingHistogram::default();
        h.record_at(0, 10);
        h.record_at(1, 20);
        assert_eq!(h.window_at(1).count(), 2);
        // Advance past the whole window: the ring is empty, the
        // lifetime view still remembers.
        let far = (WINDOW_SLOTS as u64) + 2;
        assert_eq!(h.window_at(far).count(), 0);
        assert_eq!(h.lifetime().count(), 2);
        // New observations land in the fresh window.
        h.record_at(far, 30);
        assert_eq!(h.window_at(far).count(), 1);
        assert_eq!(h.lifetime().count(), 3);
    }

    #[test]
    fn partial_rotation_clears_only_expired_slots() {
        let mut h = RollingHistogram::default();
        h.record_at(0, 1);
        h.record_at(2, 2);
        // Epoch WINDOW_SLOTS reuses slot 0, expiring only it.
        let e = WINDOW_SLOTS as u64;
        assert_eq!(h.window_at(e).count(), 1, "slot 2's observation survives");
        h.record_at(e, 3);
        assert_eq!(h.window_at(e).count(), 2);
    }

    #[test]
    fn window_expires_samples_exactly_at_the_boundary() {
        let mut h = RollingHistogram::default();
        h.record_at(0, 100);
        // One epoch short of a full window: the slot-0 sample is still
        // inside and drives the quantiles.
        let last_inside = WINDOW_SLOTS as u64 - 1;
        let w = h.window_at(last_inside);
        assert_eq!(w.count(), 1);
        assert!(WindowSummary::of(&w).p99 >= 100);
        // Exactly one more epoch reuses slot 0 and must expire it: the
        // 60s-old sample no longer contributes to any quantile.
        let w = h.window_at(last_inside + 1);
        assert_eq!(w.count(), 0, "boundary epoch must drop the expired slot");
        assert_eq!(WindowSummary::of(&w), WindowSummary::default());
    }

    #[test]
    fn empty_window_quantiles_never_panic() {
        let mut h = RollingHistogram::default();
        // Never-recorded ring.
        let s = WindowSummary::of(&h.window_at(0));
        assert_eq!(s, WindowSummary::default());
        // Recorded once, then rotated far past the window: empty again.
        h.record_at(0, 42);
        let s = WindowSummary::of(&h.window_at(WINDOW_SLOTS as u64 * 3));
        assert_eq!((s.count, s.p50, s.p90, s.p99), (0, 0, 0, 0));
        // And via the registry path, which is what `/stats` calls.
        let t = Telemetry::new();
        t.observe("lat", 7);
        assert_eq!(t.window_summary("never_observed"), WindowSummary::default());
    }

    #[test]
    fn time_never_rotates_backwards() {
        let mut h = RollingHistogram::default();
        h.record_at(5, 1);
        h.record_at(3, 2); // a late record lands in the current window
        assert_eq!(h.window_at(5).count(), 2);
    }

    #[test]
    fn window_summary_quantiles_are_clamped_bucket_bounds() {
        let t = Telemetry::new();
        for _ in 0..99 {
            t.observe("h", 10);
        }
        t.observe("h", 1000);
        let s = t.window_summary("h");
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 15, "bucket upper bound of 10");
        assert_eq!(s.p90, 15);
        assert_eq!(s.p99, 15);
        assert_eq!(t.window_summary("absent"), WindowSummary::default());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let t = std::sync::Arc::new(Telemetry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.inc("n_total", &[], 1);
                        t.observe("h", 7);
                    }
                });
            }
        });
        assert_eq!(t.counter("n_total", &[]), 400);
        assert_eq!(t.window_summary("h").count, 400);
    }
}
