//! The floor of a pass: each run of a diagram cut into segments at every
//! span boundary, and each segment timed at its fastest over the run.
//!
//! The shared host this benchmark was sized on switches between speeds
//! about 1.5× apart, in stretches of a fraction of a second to minutes.
//! A mean or median over passes moves with the share of the run spent
//! slow, by up to a third from run to run. The program is deterministic,
//! so every run of a diagram crosses the same span boundaries in the same
//! order. The segments between them mostly last milliseconds, so over ten
//! passes nearly every one runs at least once at the fast speed, and the
//! sum of their minimums is what a pass takes at that speed.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use tracing::{Event, Level, SpanRecord, Subscriber};

use crate::trace::ns;

/// Boundaries crossed since the current run of a diagram started.
static MARKS: Mutex<Vec<(Instant, &'static str)>> = Mutex::new(Vec::new());

thread_local! {
    /// Set on the thread that runs the diagrams; spans of other threads
    /// are not boundaries of its timeline.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

/// Marks every enter and close of the program's spans, down to the most
/// verbose level they use.
struct Boundaries;

impl Subscriber for Boundaries {
    fn max_verbosity(&self) -> Level {
        Level::DEBUG
    }

    fn on_event(&self, _: &Event<'_>) {}

    fn on_span_enter(&self, span: &SpanRecord<'_>) {
        mark(span.name);
    }

    fn on_span_close(&self, span: &SpanRecord<'_>) {
        mark(span.name);
    }
}

/// Installs the boundary recorder as the process's subscriber and makes
/// the calling thread the measured one.
pub fn install() -> Result<(), String> {
    MEASURED.with(|m| m.set(true));
    tracing::set_global_default(Boundaries).map_err(|e| format!("span recorder: {e}"))
}

/// Marks a segment boundary, when called on the measured thread.
pub fn mark(name: &'static str) {
    if MEASURED.with(Cell::get) {
        let now = Instant::now();
        marks().push((now, name));
    }
}

fn marks() -> std::sync::MutexGuard<'static, Vec<(Instant, &'static str)>> {
    MARKS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One diagram's fastest segments over the runs seen so far.
#[derive(Default)]
pub struct Floor {
    /// The boundary names of the first run, in order.
    names: Vec<&'static str>,
    /// Per segment, the fastest time seen, in ns.
    fastest: Vec<u64>,
    /// The fastest whole run, in ns.
    whole: u64,
    /// Runs whose boundaries differed from the first run's.
    differed: u64,
}

impl Floor {
    /// Starts timing one run of a diagram.
    pub fn start() -> Instant {
        marks().clear();
        Instant::now()
    }

    /// Ends the run started at `start`: cuts it at the boundaries it
    /// crossed and keeps each segment's fastest time.
    pub fn finish(&mut self, start: Instant) {
        let end = Instant::now();
        let crossed = std::mem::take(&mut *marks());
        let mut at = start;
        let mut segments = Vec::with_capacity(crossed.len() + 1);
        for &(t, _) in &crossed {
            segments.push(ns(t - at));
            at = t;
        }
        segments.push(ns(end - at));
        let names: Vec<&'static str> = crossed.iter().map(|&(_, n)| n).collect();
        let whole = ns(end - start);
        if self.fastest.is_empty() {
            self.names = names;
            self.fastest = segments;
            self.whole = whole;
            return;
        }
        self.whole = self.whole.min(whole);
        if names != self.names {
            self.differed += 1;
            return;
        }
        for (f, s) in self.fastest.iter_mut().zip(segments) {
            *f = (*f).min(s);
        }
    }

    /// The floor in ns: the sum of the fastest segments, or the fastest
    /// whole run when runs crossed different boundaries.
    pub fn ns(&self) -> u64 {
        if self.differed > 0 {
            self.whole
        } else {
            self.fastest.iter().sum()
        }
    }

    /// Segments, runs whose boundaries differed, and the longest segment
    /// floor in ns with the boundaries it lies between.
    pub fn shape(&self) -> (usize, u64, u64, String) {
        let (at, longest) = self
            .fastest
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, f)| f)
            .unwrap_or((0, 0));
        let from = at.checked_sub(1).map_or("start", |i| self.names[i]);
        let to = self.names.get(at).copied().unwrap_or("end");
        (
            self.fastest.len(),
            self.differed,
            longest,
            format!("{from} → {to}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run(floor: &mut Floor, sleeps_ms: &[u64]) {
        let start = Floor::start();
        for (i, &ms) in sleeps_ms.iter().enumerate() {
            std::thread::sleep(Duration::from_millis(ms));
            if i + 1 < sleeps_ms.len() {
                mark("step");
            }
        }
        floor.finish(start);
    }

    #[test]
    fn keeps_the_fastest_of_each_segment() {
        MEASURED.with(|m| m.set(true));
        let mut floor = Floor::default();
        run(&mut floor, &[30, 5]);
        run(&mut floor, &[5, 30]);
        let ms = floor.ns() as f64 / 1e6;
        assert!((10.0..30.0).contains(&ms), "floor {ms} ms");
        assert_eq!(floor.shape().0, 2);
        run(&mut floor, &[5]);
        assert_eq!(floor.shape().1, 1);
        assert!(floor.ns() as f64 / 1e6 < 30.0);
    }
}
