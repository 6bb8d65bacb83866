//! The flight recorder: a bounded ring-buffer subscriber for
//! post-mortem "blackbox" dumps.
//!
//! The JSONL/Perfetto subscribers answer "show me everything" and are
//! opt-in because everything is expensive. The flight recorder is the
//! opposite trade: always on (in `netart serve`), fixed memory, and
//! silent until something goes wrong. It keeps the last
//! [`FlightRecorder::capacity`] span-close/event records in a ring;
//! when a panic, deadline breach, injected fault, quarantine, or
//! SIGUSR1 hits, the ring is frozen into a schema-versioned
//! [`BlackboxDump`] naming the request, the active spans, and the most
//! recent degradations — the last seconds of telemetry before the
//! incident, without having traced the happy path.
//!
//! `netart blackbox <dump>` renders a dump as a timeline
//! ([`BlackboxDump::render_timeline`]); `/debug/flight` serves a live
//! snapshot when the operator opted into debug endpoints.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tracing::{Event, Level, SpanRecord, Subscriber};

use crate::json::{json_record, Json, JsonField};
use crate::subscribe::fields_json;

/// Version of the blackbox dump shape. Bump when members are renamed,
/// removed, or change meaning.
///
/// History: **1** — initial shape.
pub const BLACKBOX_SCHEMA_VERSION: u32 = 1;

/// How many recent degradation notes a dump carries.
const DEGRADATION_RING: usize = 16;

json_record! {
    /// One record in the flight ring: a span close or an event, with
    /// enough context to reconstruct a timeline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FlightRecord {
        /// Monotonic sequence number since the recorder was built; gaps
        /// never occur, so `seq` of the first retained record tells how
        /// many older records the ring has forgotten.
        pub seq: u64,
        /// Microseconds since the recorder was constructed.
        pub ts_us: f64,
        /// Ordinal of the recording thread.
        pub tid: u64,
        /// The record's level.
        pub level: Level,
        /// `span` for a span close, `event` for an event.
        pub kind: &'static str,
        /// Span name or event message.
        pub name: String,
        /// Span wall time (span closes only).
        pub elapsed_ns: Option<u64>,
        /// Structured fields, as a JSON object.
        pub fields: Json,
    }
}

/// A record's `level`; an unknown level string reads as `INFO`.
impl JsonField for Level {
    fn to_json(&self) -> Json {
        Json::from(self.as_str())
    }

    fn read(json: &Json) -> Result<Option<Self>, String> {
        Ok(json.as_str().and_then(|s| s.parse().ok()))
    }

    fn absent() -> Result<Self, String> {
        Ok(Level::INFO)
    }
}

/// A record's `kind`: `span`, and `event` for anything else.
impl JsonField for &'static str {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }

    fn read(json: &Json) -> Result<Option<Self>, String> {
        let span = json.as_str() == Some("span");
        Ok(Some(if span { "span" } else { "event" }))
    }

    fn absent() -> Result<Self, String> {
        Ok("event")
    }
}

/// The shared ring state behind recorder and handle.
#[derive(Debug)]
struct Ring {
    records: VecDeque<FlightRecord>,
    capacity: usize,
    seq: u64,
    degradations: VecDeque<String>,
}

impl Ring {
    fn push(&mut self, mut record: FlightRecord) {
        record.seq = self.seq;
        self.seq += 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }
}

/// Clonable handle onto a [`FlightRecorder`]'s ring. The recorder is
/// consumed by subscriber installation; the handle is what the server
/// keeps to freeze dumps and note degradations.
#[derive(Debug, Clone)]
pub struct FlightHandle {
    ring: Arc<Mutex<Ring>>,
    origin: Instant,
}

impl FlightHandle {
    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().map(|r| r.records.len()).unwrap_or(0)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Notes a degradation for future dumps (the last
    /// few are carried in every [`BlackboxDump`]).
    pub fn note_degradation(&self, note: impl Into<String>) {
        if let Ok(mut ring) = self.ring.lock() {
            if ring.degradations.len() == DEGRADATION_RING {
                ring.degradations.pop_front();
            }
            let note = note.into();
            ring.degradations.push_back(note);
        }
    }

    /// Freezes the ring into a dump. `reason` names the trigger
    /// (`panic`, `deadline`, `fault`, `signal`, `quarantine`,
    /// `debug`); `rid` is the request being dumped about, when there
    /// is one. Active spans are the dumping thread's span stack — for
    /// a panic dump taken on the worker that means the spans open at
    /// the moment of failure.
    pub fn snapshot(&self, reason: &str, rid: Option<&str>) -> BlackboxDump {
        let (records, seq, degradations) = match self.ring.lock() {
            Ok(ring) => (
                ring.records.iter().cloned().collect::<Vec<_>>(),
                ring.seq,
                ring.degradations.iter().cloned().collect::<Vec<_>>(),
            ),
            Err(_) => (Vec::new(), 0, Vec::new()),
        };
        let dropped = seq - records.len() as u64;
        BlackboxDump {
            reason: reason.to_owned(),
            rid: rid.map(str::to_owned),
            uptime_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dropped,
            active_spans: tracing::current_spans()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            degradations,
            records,
        }
    }
}

/// Records span closes and events into a bounded ring. Install alone
/// or as a [`crate::FanoutSubscriber`] child; the returned
/// [`FlightHandle`] freezes dumps afterwards.
pub struct FlightRecorder {
    max: Level,
    ring: Arc<Mutex<Ring>>,
    origin: Instant,
}

impl FlightRecorder {
    /// Default ring capacity: enough for the last few requests' phase
    /// spans and degradation events at a few hundred bytes each.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder retaining the last `capacity` records at `max`
    /// verbosity and everything less verbose.
    pub fn new(capacity: usize, max: Level) -> (FlightRecorder, FlightHandle) {
        let ring = Arc::new(Mutex::new(Ring {
            records: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            seq: 0,
            degradations: VecDeque::new(),
        }));
        let origin = Instant::now();
        (
            FlightRecorder {
                max,
                ring: Arc::clone(&ring),
                origin,
            },
            FlightHandle { ring, origin },
        )
    }

    fn push(&self, kind: &'static str, name: &str, level: Level, elapsed_ns: Option<u64>, fields: &[tracing::Field]) {
        let record = FlightRecord {
            seq: 0, // assigned under the lock
            ts_us: self.origin.elapsed().as_secs_f64() * 1e6,
            tid: tracing::thread_ordinal(),
            level,
            kind,
            name: name.to_owned(),
            elapsed_ns,
            fields: fields_json(fields),
        };
        if let Ok(mut ring) = self.ring.lock() {
            ring.push(record);
        }
    }
}

impl Subscriber for FlightRecorder {
    fn max_verbosity(&self) -> Level {
        self.max
    }

    fn on_event(&self, event: &Event<'_>) {
        self.push("event", event.message, event.level, None, event.fields);
    }

    fn on_span_close(&self, span: &SpanRecord<'_>) {
        let elapsed = span
            .elapsed
            .map(|e| e.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.push("span", span.name, span.level, elapsed, span.fields);
    }
}

json_record! {
    document(
        version: BLACKBOX_SCHEMA_VERSION,
        oldest: BLACKBOX_SCHEMA_VERSION,
        noun: "blackbox dump",
    )
    /// A frozen flight ring: what `blackbox.json` holds.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BlackboxDump {
        /// What triggered the dump: `panic`, `deadline`, `fault`,
        /// `signal`, `quarantine`, or `debug`.
        pub reason: String,
        /// The request being dumped about, when there is one.
        pub rid: Option<String>,
        /// Microseconds the recorder had been alive at dump time.
        pub uptime_us: f64,
        /// Records the ring had already forgotten.
        pub dropped: u64,
        /// Span stack of the dumping thread, outermost first.
        pub active_spans: Vec<String>,
        /// The most recent degradation notes, oldest first.
        pub degradations: Vec<String>,
        /// Retained records, oldest first.
        pub records: Vec<FlightRecord>,
    }
}

impl BlackboxDump {
    /// Renders the dump as a human-readable timeline (what `netart
    /// blackbox <dump>` prints): a header naming trigger and request,
    /// then one aligned line per record, oldest first.
    pub fn render_timeline(&self) -> String {
        let mut out = format!(
            "blackbox: reason={} rid={} records={} dropped={} uptime={:.3}s\n",
            self.reason,
            self.rid.as_deref().unwrap_or("-"),
            self.records.len(),
            self.dropped,
            self.uptime_us / 1e6,
        );
        if !self.active_spans.is_empty() {
            out.push_str(&format!("active spans: {}\n", self.active_spans.join(" > ")));
        }
        if !self.degradations.is_empty() {
            out.push_str(&format!(
                "recent degradations: {}\n",
                self.degradations.join(", ")
            ));
        }
        out.push_str("      seq    ts(ms)  tid level  record\n");
        for r in &self.records {
            let mut line = format!(
                "{:>9} {:>9.3} {:>4} {:>5}  ",
                r.seq,
                r.ts_us / 1e3,
                format!("t{}", r.tid),
                r.level.as_str(),
            );
            line.push_str(&r.name);
            if let Some(elapsed) = r.elapsed_ns {
                line.push_str(&format!(" ({:.3} ms)", elapsed as f64 / 1e6));
            }
            if let Some(members) = r.fields.as_obj() {
                for (key, value) in members {
                    line.push_str(&format!(" {key}={}", value.render()));
                }
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tracing::{Field, Value};

    fn event(message: &'static str) -> Event<'static> {
        Event {
            level: Level::WARN,
            message,
            fields: &[],
            spans: &[],
        }
    }

    #[test]
    fn ring_retains_only_the_last_capacity_records() {
        let (recorder, handle) = FlightRecorder::new(3, Level::TRACE);
        for message in ["a", "b", "c", "d", "e"] {
            recorder.on_event(&event(message));
        }
        let dump = handle.snapshot("debug", None);
        assert_eq!(dump.records.len(), 3);
        assert_eq!(dump.dropped, 2);
        let names: Vec<&str> = dump.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["c", "d", "e"]);
        // Sequence numbers survive the wrap, so the timeline shows
        // where the retained window starts.
        assert_eq!(dump.records[0].seq, 2);
    }

    #[test]
    fn span_closes_carry_elapsed_and_fields() {
        let (recorder, handle) = FlightRecorder::new(8, Level::TRACE);
        recorder.on_span_close(&SpanRecord {
            name: "netart.route",
            level: Level::INFO,
            fields: &[Field {
                name: "nets",
                value: Value::Uint(6),
            }],
            elapsed: Some(Duration::from_micros(1500)),
        });
        let dump = handle.snapshot("debug", None);
        assert_eq!(dump.records[0].kind, "span");
        assert_eq!(dump.records[0].elapsed_ns, Some(1_500_000));
        assert_eq!(dump.records[0].fields.get("nets"), Some(&Json::Uint(6)));
    }

    #[test]
    fn dump_round_trips_through_json() {
        let (recorder, handle) = FlightRecorder::new(8, Level::TRACE);
        recorder.on_event(&event("deadline tripped"));
        handle.note_degradation("deadline_cancelled");
        let dump = handle.snapshot("deadline", Some("r000042"));
        let text = dump.to_json_string();
        let parsed = Json::parse(&text).expect("dump renders valid JSON");
        assert_eq!(
            parsed.get("schema_version"),
            Some(&Json::Uint(u64::from(BLACKBOX_SCHEMA_VERSION)))
        );
        let back = BlackboxDump::from_json(&parsed).expect("dump reads back");
        assert_eq!(back, dump);
        assert_eq!(back.rid.as_deref(), Some("r000042"));
        assert_eq!(back.degradations, ["deadline_cancelled"]);
    }

    #[test]
    fn unsupported_dump_version_is_named() {
        let bad = Json::obj().with("schema_version", 99u64);
        let err = BlackboxDump::from_json(&bad).unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
    }

    #[test]
    fn timeline_renders_header_and_records() {
        let (recorder, handle) = FlightRecorder::new(8, Level::TRACE);
        recorder.on_event(&Event {
            level: Level::ERROR,
            message: "routing panicked",
            fields: &[Field {
                name: "detail",
                value: Value::Str("index out of bounds".into()),
            }],
            spans: &[],
        });
        let mut dump = handle.snapshot("panic", Some("r000007"));
        dump.degradations = vec!["net_salvaged".to_owned()];
        let text = dump.render_timeline();
        assert!(text.contains("reason=panic"), "{text}");
        assert!(text.contains("rid=r000007"), "{text}");
        assert!(text.contains("routing panicked"), "{text}");
        assert!(text.contains("detail=\"index out of bounds\""), "{text}");
        assert!(text.contains("recent degradations: net_salvaged"), "{text}");
    }

    #[test]
    fn degradation_notes_are_bounded() {
        let (_recorder, handle) = FlightRecorder::new(2, Level::TRACE);
        for i in 0..40 {
            handle.note_degradation(format!("deg{i}"));
        }
        let dump = handle.snapshot("debug", None);
        assert_eq!(dump.degradations.len(), DEGRADATION_RING);
        assert_eq!(dump.degradations.last().map(String::as_str), Some("deg39"));
    }
}
