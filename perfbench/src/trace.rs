//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is recorded unless tracing is on; the spans are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span. Spans of one diagram or request share a `group`.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    group: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A handle to an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        ns(self.epoch.elapsed())
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, group: u64) -> Open {
        crate::segments::mark(name);
        if !self.on {
            return Open(None);
        }
        let start = self.now_ns();
        Open(Some(self.push(name, group, start, start)))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        crate::segments::mark("close");
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
    }

    /// Closes `open` and files the phases the called layer reported
    /// about itself as its children, laid end to end from its start.
    pub fn close_with_phases(&mut self, open: Open, phases: &[(&'static str, Duration)]) {
        self.close(open);
        let Some(i) = open.0 else { return };
        let (group, mut at) = (self.spans[i].group, self.spans[i].start_ns);
        for &(name, d) in phases {
            let end = (at + ns(d)).min(self.spans[i].end_ns);
            self.spans.push(Span {
                name,
                group,
                parent: Some(i),
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    /// Files a span measured elsewhere (another thread, another
    /// process); it is not left open.
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| ns(t.saturating_duration_since(self.epoch));
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(self.spans.len() - 1)
    }

    fn push(&mut self, name: &'static str, group: u64, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            group,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
        });
        let i = self.spans.len() - 1;
        self.stack.push(i);
        i
    }

    /// Self time per span name, in seconds: each span's duration less
    /// the part its children cover (children never overlap here).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.group,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_reported_children() {
        let mut t = Tracer::new(true);
        let core = t.open("core", 7);
        std::thread::sleep(Duration::from_millis(5));
        t.close_with_phases(
            core,
            &[
                ("place", Duration::from_millis(1)),
                ("route", Duration::from_millis(2)),
            ],
        );
        let own = t.self_seconds();
        assert!((own["place"] - 0.001).abs() < 1e-9);
        assert!((own["route"] - 0.002).abs() < 1e-9);
        assert!(own["core"] >= 0.0019);
        assert!(t.spans.iter().all(|s| s.group == 7));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("core", 0);
        t.close(s);
        assert!(t.self_seconds().is_empty());
    }
}
