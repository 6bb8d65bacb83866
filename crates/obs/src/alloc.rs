//! The allocation profiler: per-phase heap attribution behind the
//! `alloc-profile` feature.
//!
//! With the feature on, a counting [`std::alloc::GlobalAlloc`]
//! wrapper around the system allocator attributes every allocation to
//! the pipeline phase that is *current* on the allocating thread. The
//! current phase is a `const`-initialized thread-local tag, set
//! either by the `PhaseTagSubscriber` (a feature-only type) when the
//! existing `netart.place`/`netart.route` (and pass-level) spans are
//! entered and closed, or directly by the CLI around its own
//! parse/emit sections via [`enter_phase`]. The allocator itself touches only
//! that tag and a handful of relaxed atomics — no allocation, no
//! locks — so the profiled binary stays usable for timing work too.
//!
//! Without the feature every type here is a no-op stub and the crate
//! does not declare a `#[global_allocator]` at all: release builds
//! carry zero overhead, and [`profiling_enabled`] tells callers which
//! world they are in.
//!
//! Attribution is per-thread and the counters are process-global:
//! concurrent pipelines (a busy `netart serve`) therefore blur each
//! other's deltas. The single-run CLI tools and the bench harness —
//! where the numbers feed `RunReport` schema v3 and the perf gate —
//! run one pipeline at a time, which is the deterministic case the
//! committed baselines rely on.

use crate::report::RunReport;

/// Phase names the profiler attributes to, in tag order. Index 0 is
/// the catch-all for allocations outside any recognized phase.
pub const PHASES: [&str; 6] = ["other", "parse", "doctor", "place", "route", "emit"];

/// Per-phase allocation totals attributed since a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAlloc {
    /// Allocations attributed to the phase.
    pub count: u64,
    /// Bytes allocated while the phase was current.
    pub bytes: u64,
    /// Peak live heap bytes observed while the phase was current.
    pub peak: u64,
}

/// Maps a span name onto a phase tag, if it belongs to one.
#[cfg_attr(not(feature = "alloc-profile"), allow(dead_code))]
fn phase_of_span(name: &str) -> Option<usize> {
    match name {
        "netart.place" => Some(3),
        "netart.route" => Some(4),
        _ if name.starts_with("pablo.") => Some(3),
        _ if name.starts_with("eureka.") => Some(4),
        _ if name.starts_with("doctor") => Some(2),
        _ if name.starts_with("parse") => Some(1),
        _ if name.starts_with("emit") => Some(5),
        _ => None,
    }
}

/// Maps a report phase name onto a phase tag.
fn phase_index(name: &str) -> Option<usize> {
    PHASES.iter().position(|&p| p == name)
}

/// Fills each phase's allocation members from the profiler's totals
/// accumulated since `snapshot`. Without the `alloc-profile` feature
/// this leaves every member `None`, keeping the report shape
/// identical across builds.
pub fn attach_alloc_profile(report: &mut RunReport, snapshot: &AllocSnapshot) {
    if !profiling_enabled() {
        return;
    }
    let since = snapshot.since();
    for phase in &mut report.phases {
        if let Some(idx) = phase_index(&phase.name) {
            let totals = since[idx];
            phase.alloc_count = Some(totals.count);
            phase.alloc_bytes = Some(totals.bytes);
            phase.peak_bytes = Some(totals.peak);
        }
    }
}

#[cfg(feature = "alloc-profile")]
mod profiled {
    use super::{phase_of_span, PhaseAlloc, PHASES};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};

    use tracing::{Event, Level, SpanRecord, Subscriber};

    const N: usize = PHASES.len();

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static ALLOC_COUNT: [AtomicU64; N] = [ZERO; N];
    static ALLOC_BYTES: [AtomicU64; N] = [ZERO; N];
    static PEAK: [AtomicU64; N] = [ZERO; N];
    static LIVE: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// The allocating thread's current phase tag. `const`
        /// initialization matters: a lazily-initialized thread-local
        /// would allocate inside the allocator.
        static PHASE: Cell<usize> = const { Cell::new(0) };
        /// Saved tags of enclosing recognized spans, so nested phase
        /// spans restore correctly on close.
        static SAVED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    #[inline]
    fn current_phase() -> usize {
        // `try_with`: the allocator runs during thread teardown too,
        // after the thread-local is gone.
        PHASE.try_with(Cell::get).unwrap_or(0)
    }

    #[inline]
    fn record_alloc(size: usize) {
        let phase = current_phase();
        ALLOC_COUNT[phase].fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES[phase].fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK[phase].fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn record_dealloc(size: usize) {
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    // SAFETY: every method forwards verbatim to `System` and only adds
    // relaxed atomic bookkeeping around the forwarded call.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                record_alloc(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                record_alloc(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            record_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = System.realloc(ptr, layout, new_size);
            if !new_ptr.is_null() {
                record_dealloc(layout.size());
                record_alloc(new_size);
            }
            new_ptr
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Whether this build carries the counting allocator.
    pub fn profiling_enabled() -> bool {
        true
    }

    /// Sets the calling thread's phase tag until the guard drops; for
    /// code sections that are a phase without being a span (the CLI's
    /// parse/emit work).
    pub fn enter_phase(name: &str) -> PhaseGuard {
        let previous = current_phase();
        let tag = super::phase_index(name).unwrap_or(0);
        let _ = PHASE.try_with(|c| c.set(tag));
        PhaseGuard { previous }
    }

    /// Restores the phase tag that was current at [`enter_phase`].
    pub struct PhaseGuard {
        previous: usize,
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            let _ = PHASE.try_with(|c| c.set(self.previous));
        }
    }

    /// A point-in-time reading of the per-phase totals.
    ///
    /// Capturing also rebases every phase's peak tracker to the
    /// current live-byte count, so the peaks reported by
    /// [`AllocSnapshot::since`] are peaks *within* the window, not
    /// since process start.
    #[derive(Debug, Clone, Copy)]
    pub struct AllocSnapshot {
        counts: [u64; N],
        bytes: [u64; N],
    }

    impl AllocSnapshot {
        /// Captures the totals now and rebases the peak trackers.
        pub fn capture() -> AllocSnapshot {
            let mut counts = [0; N];
            let mut bytes = [0; N];
            let live = LIVE.load(Ordering::Relaxed);
            for i in 0..N {
                counts[i] = ALLOC_COUNT[i].load(Ordering::Relaxed);
                bytes[i] = ALLOC_BYTES[i].load(Ordering::Relaxed);
                PEAK[i].store(live, Ordering::Relaxed);
            }
            AllocSnapshot { counts, bytes }
        }

        /// Per-phase totals accumulated since this snapshot, indexed
        /// like [`PHASES`].
        pub fn since(&self) -> [PhaseAlloc; N] {
            let mut out = [PhaseAlloc::default(); N];
            for (i, slot) in out.iter_mut().enumerate() {
                slot.count = ALLOC_COUNT[i]
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.counts[i]);
                slot.bytes = ALLOC_BYTES[i]
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.bytes[i]);
                slot.peak = PEAK[i].load(Ordering::Relaxed);
            }
            out
        }
    }

    /// Keeps the thread-local phase tag in step with the pipeline's
    /// existing spans. Install as a fan-out child; it records nothing
    /// itself.
    pub struct PhaseTagSubscriber;

    impl Subscriber for PhaseTagSubscriber {
        fn max_verbosity(&self) -> Level {
            // INFO reaches the phase spans without forcing the per-net
            // DEBUG spans through dispatch.
            Level::INFO
        }

        fn on_event(&self, _event: &Event<'_>) {}

        fn on_span_enter(&self, span: &SpanRecord<'_>) {
            if let Some(tag) = phase_of_span(span.name) {
                let _ = SAVED.try_with(|saved| {
                    if let Ok(mut saved) = saved.try_borrow_mut() {
                        saved.push(current_phase());
                    }
                });
                let _ = PHASE.try_with(|c| c.set(tag));
            }
        }

        fn on_span_close(&self, span: &SpanRecord<'_>) {
            if phase_of_span(span.name).is_some() {
                let previous = SAVED
                    .try_with(|saved| {
                        saved
                            .try_borrow_mut()
                            .ok()
                            .and_then(|mut saved| saved.pop())
                    })
                    .ok()
                    .flatten()
                    .unwrap_or(0);
                let _ = PHASE.try_with(|c| c.set(previous));
            }
        }
    }
}

#[cfg(feature = "alloc-profile")]
pub use profiled::{enter_phase, profiling_enabled, AllocSnapshot, PhaseGuard, PhaseTagSubscriber};

#[cfg(not(feature = "alloc-profile"))]
mod stubbed {
    use super::{PhaseAlloc, PHASES};

    /// Whether this build carries the counting allocator.
    pub fn profiling_enabled() -> bool {
        false
    }

    /// No-op phase guard (the `alloc-profile` feature is off).
    pub struct PhaseGuard;

    // The explicit (empty) Drop keeps `drop(guard)` meaningful at the
    // call sites whichever way the feature flag points.
    impl Drop for PhaseGuard {
        fn drop(&mut self) {}
    }

    /// No-op phase tagging (the `alloc-profile` feature is off).
    pub fn enter_phase(_name: &str) -> PhaseGuard {
        PhaseGuard
    }

    /// No-op snapshot (the `alloc-profile` feature is off).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct AllocSnapshot;

    impl AllocSnapshot {
        /// Captures nothing; [`AllocSnapshot::since`] reports zeros.
        pub fn capture() -> AllocSnapshot {
            AllocSnapshot
        }

        /// All-zero totals.
        pub fn since(&self) -> [PhaseAlloc; PHASES.len()] {
            [PhaseAlloc::default(); PHASES.len()]
        }
    }
}

#[cfg(not(feature = "alloc-profile"))]
pub use stubbed::{enter_phase, profiling_enabled, AllocSnapshot, PhaseGuard};

#[cfg(all(test, feature = "alloc-profile"))]
mod tests {
    use super::*;
    use std::time::Duration;
    use tracing::{Level, SpanRecord, Subscriber};

    fn route_span() -> SpanRecord<'static> {
        SpanRecord {
            name: "netart.route",
            level: Level::INFO,
            fields: &[],
            elapsed: Some(Duration::ZERO),
        }
    }

    #[test]
    fn allocations_inside_a_phase_are_attributed_to_it() {
        let tags = PhaseTagSubscriber;
        let snapshot = AllocSnapshot::capture();
        tags.on_span_enter(&route_span());
        let block = vec![0u8; 1 << 20];
        tags.on_span_close(&route_span());
        let since = snapshot.since();
        let route = since[4];
        assert!(route.count >= 1, "route phase saw no allocations");
        assert!(route.bytes >= 1 << 20, "route bytes: {}", route.bytes);
        assert!(route.peak >= 1 << 20, "route peak: {}", route.peak);
        drop(block);
    }

    #[test]
    fn nested_phase_spans_restore_the_outer_tag() {
        let tags = PhaseTagSubscriber;
        tags.on_span_enter(&route_span());
        let inner = SpanRecord {
            name: "eureka.net",
            level: Level::DEBUG,
            fields: &[],
            elapsed: Some(Duration::ZERO),
        };
        tags.on_span_enter(&inner);
        tags.on_span_close(&inner);
        // Still attributing to route after the nested span closed.
        let snapshot = AllocSnapshot::capture();
        let block = vec![0u8; 4096];
        let since = snapshot.since();
        assert!(since[4].bytes >= 4096, "route bytes: {}", since[4].bytes);
        drop(block);
        tags.on_span_close(&route_span());
    }

    #[test]
    fn attach_fills_matching_phases_only() {
        use crate::report::RunReport;
        let mut report = RunReport::default();
        report.push_phase("route", 1);
        report.push_phase("weird", 1);
        let snapshot = AllocSnapshot::capture();
        attach_alloc_profile(&mut report, &snapshot);
        assert!(report.phases[0].alloc_count.is_some());
        assert!(report.phases[1].alloc_count.is_none(), "unknown phase stays null");
    }
}
