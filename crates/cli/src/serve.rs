//! `netart serve` — a hardened resident diagram service.
//!
//! The batch engine answers "run this list and exit"; serving answers
//! "stay up and answer diagram requests until told to stop". The
//! robustness posture is the point, not the transport:
//!
//! * **admission control** — each connection thread runs its request
//!   through the engine [`Service`]'s gate: at most `--workers`
//!   pipelines run at once, at most `--queue-depth` requests wait
//!   for a slot, and a request past that sheds with `429
//!   Retry-After` instead of queueing unboundedly; a declared body
//!   over the cap is refused with `413` before it is buffered;
//! * **deadline propagation** — each request's `timeout_ms` (capped
//!   by the server-side ceiling) becomes the service deadline *and*
//!   the per-net routing budget ceiling, so the watchdog trips the
//!   request's [`CancelToken`](netart::route::CancelToken) and the
//!   router surfaces mid-expansion; the client gets a structured
//!   degraded response, not a hung connection;
//! * **content-addressed artifact cache** — the response artifacts
//!   are keyed by a hash of the line-normalized input plus the
//!   rendering options; concurrent identical requests coalesce onto
//!   one computation ([`SingleFlight`]) and replays are byte-identical
//!   ([`ByteCache`], byte-budgeted LRU);
//! * **lifecycle** — `/healthz` says the process is alive, `/readyz`
//!   flips to `503` the moment SIGINT/SIGTERM arrives, in-flight work
//!   drains within the grace bound, and a panicking request answers
//!   `500` while the listener lives on (`catch_unwind` at the gate
//!   and at the connection);
//! * **live telemetry** — `GET /metrics` exposes the
//!   [`Telemetry`] registry in Prometheus text exposition (counters
//!   by outcome, queue/cache gauges, latency and routing-effort
//!   histograms), `GET /stats` reads its counters back from the same
//!   registry, `--access-log` appends one JSON line per request
//!   (request id, cache outcome, deadline fate, phase timings), and
//!   the same request id stamps the `tracing` spans so a
//!   `--trace-out` Perfetto trace correlates line-for-line with the
//!   access log. A fault at `serve.telemetry` degrades to "metrics
//!   unavailable" — observing a request never fails it.
//!
//! The response taxonomy mirrors the CLI exit codes: exit `0`/`2`/`1`
//! become `200` clean / `200` degraded / `422` (rejected input) or
//! `500` (pipeline failure), each carrying a [`ServeReport`] body
//! with the full run report inline.

use std::fs::File;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::os::fd::FromRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use netart::netlist::doctor::{self, DoctorCode, InputPolicy};
use netart::netlist::ingest::records_from_str;
use netart::netlist::Library;
use netart_govern::MemBudget;
use netart::obs::{
    AccessRecord, AllocSnapshot, CacheOutcome, FlightHandle, FlightRecorder, Json, ServeReport,
    ServeStats, ServeStatus, Telemetry,
};
use netart::place::PlaceConfig;
use netart::route::{Budget, NetOrder, RouteConfig};
use netart_engine::{
    ByteCache, Fnv1a, JobContext, Service, ServiceConfig, SingleFlight, SubmitError,
};

use crate::commands::{
    budget_from_args, cli_degradation, doctor_degradations, emit_artifacts, load_library, ns,
    order_from_args, parse_bytes, Artifacts, CliError,
};
use crate::http::{read_request, respond, RequestError};
use crate::session::{RunOutput, Session, Spec, UNREPORTED};
use crate::shard::{FleetView, ShardRuntime};
use crate::{ArgError, ParsedArgs};

/// How long a connection may dribble its request before the read
/// times out — bounds slow-loris clients without a reactor.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The idle tick of the accept loop (non-blocking accept poll and
/// drain-signal check).
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Fixed per-entry overhead charged to the cache budget on top of the
/// artifact bytes (key, map entry, report structure).
const CACHE_ENTRY_OVERHEAD: usize = 512;

/// Diagram requests by final outcome (`outcome` ∈ clean, degraded,
/// failed, mem_reject, shed, drain_reject, panic), counted as each
/// request resolves.
const M_REQUESTS: &str = "netart_serve_requests_total";
/// Cache consultations by result (`result` ∈ hit, miss, coalesced).
const M_CACHE: &str = "netart_serve_cache_requests_total";
/// Requests whose deadline cancelled the pipeline mid-run.
const M_DEADLINE: &str = "netart_serve_deadline_cancelled_total";
/// Requests refused with `413` because the declared body exceeds
/// `--max-body`.
const M_TOO_LARGE: &str = "netart_serve_too_large_total";
/// Panics caught outside the gate's `catch_unwind` (routing or framing
/// a response), each answered `500` with the connection alone lost.
const M_CONNECTION_PANICS: &str = "netart_serve_connection_panics_total";
/// Telemetry recording attempts lost to an injected `serve.telemetry`
/// fault (the observed request itself is unaffected).
const M_TELEMETRY_FAULTS: &str = "netart_serve_telemetry_faults_total";
/// End-to-end request latency (parse to framed reply), nanoseconds.
const M_LATENCY: &str = "netart_serve_request_latency_ns";
/// Routing-phase wall time per computed request, nanoseconds.
const M_ROUTE_WALL: &str = "netart_serve_route_wall_ns";
/// Search nodes expanded per computed request.
const M_NODES: &str = "netart_serve_nodes_expanded";
/// Time a job waited at the admission gate for a slot, nanoseconds.
const M_QUEUE_WAIT: &str = "netart_serve_queue_wait_ns";
/// Requests refused because the `--memory-budget` governor had no room
/// (at admission or mid-parse). Each refusal answered `503
/// Retry-After`; the budget frees as in-flight work completes.
const M_MEM_REJECTIONS: &str = "netart_serve_mem_rejections_total";
/// Sharded mode only: cumulative worker respawns across the fleet, as
/// broadcast by the supervisor.
const M_SHARD_RESTARTS: &str = "netart_serve_shard_restarts_total";
/// Sharded mode only: per-shard liveness gauge (`shard` label; 1 live,
/// 0 down or quarantined), as broadcast by the supervisor.
const M_SHARD_LIVE: &str = "netart_serve_shard_live";

/// The rendering options a request may set, resolved against the
/// server's defaults. The deadline is deliberately *not* part of the
/// cache identity — the artifact a timeout produces is the same
/// artifact, just slower.
#[derive(Clone, Copy)]
struct RenderOptions {
    margin: i32,
    order: NetOrder,
}

/// One diagram job, as the pipeline sees it.
struct DiagramJob {
    /// The request id, stamped on the job's span and on any
    /// deadline-cancellation degradation so traces, access-log lines
    /// and response bodies correlate.
    rid: String,
    net: String,
    cal: String,
    io: Option<String>,
    options: RenderOptions,
    timeout: Duration,
    artifact: String,
}

/// How a diagram request ends. The fate alone fixes the reply's
/// status and `Retry-After`, the `outcome` label of the access log and
/// of `netart_serve_requests_total`, and what the request leaves
/// behind: a cache entry, a blackbox dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Clean,
    Degraded,
    /// The request or the doctor rejected the input.
    Rejected,
    /// An injected `serve.request` fault or an emit failure.
    Failed,
    /// The memory governor had no room. Not final like a rejection:
    /// the input may fit once in-flight work releases its charges.
    MemReject,
    /// Every slot and every place in line was taken.
    Shed,
    DrainReject,
    /// The handler panicked inside the gate.
    Panic,
}

impl Fate {
    fn status(self) -> u16 {
        match self {
            Fate::Clean | Fate::Degraded => 200,
            Fate::Rejected => 422,
            Fate::Failed | Fate::Panic => 500,
            Fate::MemReject | Fate::DrainReject => 503,
            Fate::Shed => 429,
        }
    }

    /// Whether the refusal is of the moment, so the reply says
    /// `Retry-After: 1`.
    fn retry_after(self) -> bool {
        matches!(self, Fate::MemReject | Fate::Shed)
    }

    /// The `outcome` label; a rejection counts as `failed`.
    fn label(self) -> &'static str {
        match self {
            Fate::Clean => "clean",
            Fate::Degraded => "degraded",
            Fate::Rejected | Fate::Failed => "failed",
            Fate::MemReject => "mem_reject",
            Fate::Shed => "shed",
            Fate::DrainReject => "drain_reject",
            Fate::Panic => "panic",
        }
    }

    /// Whether the gate ran the handler to a verdict, the doctor's
    /// included: only then was a flight's request a cache `miss` or
    /// `coalesced`.
    fn ran(self) -> bool {
        !matches!(self, Fate::Shed | Fate::DrainReject | Fate::Panic)
    }

    /// Whether the report may be cached. A deadline-cancelled run is
    /// degraded but timing-dependent, so it never is either.
    fn cacheable(self) -> bool {
        matches!(self, Fate::Clean | Fate::Degraded)
    }

    /// Why the request that led a flight of this fate freezes the
    /// flight ring, if it does. A deadline breach dumps whatever the
    /// fate.
    fn dump_reason(self) -> Option<&'static str> {
        match self {
            Fate::Failed => Some("fault"),
            Fate::Panic => Some("panic"),
            _ => None,
        }
    }
}

/// How one admission attempt ended, before HTTP framing; every caller
/// coalesced onto it shares it.
struct Computed {
    fate: Fate,
    report: ServeReport,
    deadline_cancelled: bool,
}

impl Computed {
    /// An ending without a diagram, explained by `message`.
    fn failure(fate: Fate, message: impl Into<String>) -> Self {
        Computed {
            fate,
            report: ServeReport::failure(message),
            deadline_cancelled: false,
        }
    }
}

/// The reply body of a request refused while the server drains.
const DRAINING: &str = "draining: not accepting work";

struct ServerState {
    /// The admission gate every pipeline run passes.
    service: Service,
    /// What each pipeline run starts from: the boot-time library, the
    /// doctor's input policy and the base routing budget.
    library: Library,
    policy: InputPolicy,
    base_budget: Budget,
    flight: SingleFlight<String, Arc<Computed>>,
    cache: ByteCache<String, Arc<Computed>>,
    /// The one account of the server's traffic: `/metrics` renders it
    /// and `/stats` reads its counters back.
    telemetry: Arc<Telemetry>,
    /// Monotonic request-id source (`r000000`, `r000001`, …; shard
    /// workers prefix their index: `s2-r000000`, …).
    seq: AtomicU64,
    /// The request-id prefix: `"r"` single-process, `"s{k}-r"` for
    /// shard worker `k` — keeps rids globally unique across the fleet
    /// in access logs and tracing spans.
    rid_prefix: String,
    /// Worker-mode shard identity and the supervisor-fed fleet view;
    /// `None` in the ordinary single-process mode.
    shard: Option<ShardRuntime>,
    /// The `--access-log` sink; one JSON line per diagram request.
    access_log: Option<Mutex<File>>,
    default_timeout: Duration,
    timeout_ceiling: Duration,
    max_body: usize,
    /// The `--memory-budget` governor: request bodies lease their
    /// bytes here for the life of the connection, and each job's parse
    /// runs under a snapshot of the remaining room.
    mem_budget: MemBudget,
    default_options: RenderOptions,
    /// Handle onto the always-on flight recorder ring; frozen into a
    /// blackbox dump on panic, deadline breach, request fault, or
    /// SIGUSR1.
    recorder: FlightHandle,
    /// Where blackbox dumps land (`--blackbox`, default
    /// `blackbox.json`). The latest incident wins.
    blackbox_path: PathBuf,
    /// Whether `GET /debug/flight` is answered (`--debug-endpoints`);
    /// off by default so production deployments don't expose ring
    /// internals.
    debug_endpoints: bool,
}

/// Freezes the flight ring into the blackbox file. A faulted or
/// failed write must never disturb the request that triggered it: it
/// degrades to `false`, and the `flight_dump_failed` note is carried
/// by the ring into every later dump. Request-path callers surface
/// the same note in the response they were building.
fn dump_blackbox(state: &ServerState, reason: &str, rid: Option<&str>) -> bool {
    let dump = state.recorder.snapshot(reason, rid);
    let ok = crate::blackbox::write_dump(&state.blackbox_path, &dump);
    if !ok {
        state.recorder.note_degradation("flight_dump_failed");
    }
    ok
}

/// The content address of one request: the input, line-normalized,
/// plus the options that change the artifact. Normalizing strips
/// trailing whitespace (CR included) and drops blank lines, so two
/// spellings of the same netlist address the same artifact.
fn artifact_key(net: &str, cal: &str, io: Option<&str>, options: &RenderOptions) -> String {
    let mut h = Fnv1a::new();
    for text in [net, cal, io.unwrap_or("")] {
        for line in text.lines().map(str::trim_end).filter(|l| !l.is_empty()) {
            h.feed(line.as_bytes());
            h.feed(b"\n");
        }
        h.feed(&[0xff]);
    }
    h.feed(format!("m={};order={:?}", options.margin, options.order).as_bytes());
    format!("{:016x}", h.finish())
}

/// The pipeline, request-scoped: doctor → place → route (under the
/// request's token and budget ceiling) → checked emit. Runs on the
/// connection thread inside the gate's `catch_unwind`; a panic here
/// answers `500`, it does not reach the listener.
fn handle_job(state: &ServerState, job: DiagramJob, ctx: &JobContext) -> Computed {
    // The job span carries the request id, so a Perfetto trace
    // correlates with the access-log line for the same request.
    let span = tracing::span!(tracing::Level::INFO, "serve.job", rid = job.rid.as_str());
    let _guard = span.enter();

    // The canonical "my handler exploded" site: inside the gate's
    // catch_unwind, so an injected panic must answer `500` and leave
    // the listener serving.
    if let Some(kind) = netart_fault::fire(netart_fault::sites::SERVE_REQUEST) {
        return Computed::failure(Fate::Failed, format!("injected {kind} fault at `serve.request`"));
    }

    let mut degs = Vec::new();
    let t_doctor = Instant::now();
    // The parse is governed by a snapshot of the global budget's
    // remaining room: the network this job materialises may not exceed
    // what the process has left. The snapshot is private to the job,
    // so its charges die with the network — nothing to release.
    let parse_budget = Arc::new(MemBudget::bytes(state.mem_budget.remaining()));
    let network = match doctor::doctor_network_records(
        state.library.clone(),
        records_from_str(&job.net),
        records_from_str(&job.cal),
        job.io.as_deref().map(records_from_str),
        state.policy,
        &parse_budget,
    ) {
        Ok((network, report)) => {
            doctor_degradations(Path::new("request"), &report, &mut degs);
            network
        }
        Err(e) => {
            // The governor refused the parse (`ND015`), not the input.
            let exhausted = e
                .diagnostics
                .iter()
                .any(|d| d.code == DoctorCode::ResourceExhausted);
            return if exhausted {
                Computed::failure(Fate::MemReject, format!("input refused: {e}"))
            } else {
                Computed::failure(Fate::Rejected, format!("input rejected: {e}"))
            };
        }
    };
    let doctor_ns = ns(t_doctor.elapsed());

    // The deadline both bounds the whole request (the gate's
    // watchdog trips the token) and ceilings the per-net routing
    // budget, so a single pathological net cannot eat the allowance
    // the client gave the whole diagram.
    let route = RouteConfig::new()
        .with_margin(job.options.margin)
        .with_order(job.options.order)
        .with_budget(state.base_budget.with_time_ceiling(job.timeout))
        .with_cancel(ctx.cancel.clone());
    // Heap attribution window for this job (a no-op stub unless the
    // binary was built with `--features alloc-profile`). The phase
    // counters are process-global, so with several workers a
    // concurrent job's traffic blurs into this window — serve-side
    // numbers are a heat map, not an audit; `netart --report-json`
    // single runs are the precise ones.
    let alloc_base = AllocSnapshot::capture();
    let outcome = netart::Generator::new()
        .with_placing(PlaceConfig::new())
        .with_routing(route)
        .generate(network);
    let deadline_cancelled = ctx.cancel.is_cancelled();

    let artifacts = emit_artifacts(
        &outcome,
        "netart serve",
        "netart_serve",
        ("doctor", doctor_ns),
        &alloc_base,
        &mut degs,
    );
    let Artifacts {
        escher,
        svg,
        report: mut run_report,
        ..
    } = match artifacts {
        Ok(artifacts) => artifacts,
        Err(e) => {
            return Computed {
                deadline_cancelled,
                ..Computed::failure(Fate::Failed, format!("emit failed: {e}"))
            }
        }
    };
    if deadline_cancelled {
        run_report.push_degradation(cli_degradation(
            "deadline_cancelled",
            Some("route".to_owned()),
            format!(
                "request {} deadline of {:?} cancelled the pipeline mid-run; the diagram is truncated",
                job.rid, job.timeout
            ),
        ));
    }

    // Effort histograms. Fault-guarded: losing a sample must never
    // lose the request.
    record_telemetry(&state.telemetry, |t| {
        if let Some(route_ns) = run_report.phase_ns("route") {
            t.observe(M_ROUTE_WALL, route_ns);
        }
        t.observe(M_NODES, run_report.nets.iter().map(|n| n.nodes_expanded).sum::<u64>());
        t.observe(M_QUEUE_WAIT, ns(ctx.queue_wait));
        // Present only under `--features alloc-profile`: per-phase
        // heap traffic histograms, one series per phase name.
        for p in &run_report.phases {
            if let Some(bytes) = p.alloc_bytes {
                t.observe(&format!("netart_serve_alloc_bytes_{}", p.name), bytes);
            }
        }
    });

    let (fate, status) = if run_report.is_clean {
        (Fate::Clean, ServeStatus::Clean)
    } else {
        (Fate::Degraded, ServeStatus::Degraded)
    };
    Computed {
        fate,
        report: ServeReport {
            status,
            cache: CacheOutcome::Miss,
            artifact: job.artifact,
            escher,
            svg,
            error: None,
            report: Some(run_report),
        },
        deadline_cancelled,
    }
}

/// A `get` that survives an injected `serve.cache` fault: any fired
/// kind (panic included) degrades to a miss — recompute rather than
/// crash or serve garbage.
fn cache_get(state: &ServerState, key: &str) -> Option<Arc<Computed>> {
    netart_fault::survive(netart_fault::sites::SERVE_CACHE, || state.cache.get(&key.to_owned()))
        .flatten()
}

/// A `put` that survives an injected `serve.cache` fault: the insert
/// is skipped, the response already computed is unaffected.
fn cache_put(state: &ServerState, key: String, computed: &Arc<Computed>) {
    let report = &computed.report;
    let bytes = report.escher.len() + report.svg.len() + key.len() + CACHE_ENTRY_OVERHEAD;
    let value = Arc::clone(computed);
    netart_fault::survive(netart_fault::sites::SERVE_CACHE, || state.cache.put(key, value, bytes));
}

/// Runs a telemetry-recording block under the `serve.telemetry` fault
/// site. Any fired kind (panic included) degrades to "sample lost":
/// the fault counter is bumped and the request being observed is
/// never affected.
fn record_telemetry(telemetry: &Telemetry, record: impl FnOnce(&Telemetry)) {
    if netart_fault::survive(netart_fault::sites::SERVE_TELEMETRY, || record(telemetry)).is_none() {
        telemetry.inc(M_TELEMETRY_FAULTS, &[], 1);
    }
}

/// Appends one line to the `--access-log` sink, if configured. Lock
/// poisoning and write errors are swallowed: the log is diagnostics,
/// the response is the product.
fn write_access_log(state: &ServerState, acc: &AccessRecord) {
    if let Some(log) = &state.access_log {
        let line = acc.to_json_line();
        if let Ok(mut file) = log.lock() {
            let _ = writeln!(file, "{line}");
        }
    }
}

/// One framed response: status code, content type, extra headers,
/// body.
struct HttpReply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl HttpReply {
    fn json(status: u16, body: String) -> Self {
        HttpReply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    fn text(status: u16, content_type: &'static str, body: String) -> Self {
        HttpReply {
            status,
            content_type,
            headers: Vec::new(),
            body,
        }
    }

    fn report(status: u16, report: &ServeReport) -> Self {
        HttpReply::json(status, report.to_json_string())
    }
}

/// A diagram request's reply, framed by its fate: the status, and
/// `Retry-After` when the refusal is of the moment. A memory refusal
/// also counts in `netart_serve_mem_rejections_total`.
fn answer(state: &ServerState, fate: Fate, report: &ServeReport) -> HttpReply {
    if fate == Fate::MemReject {
        record_telemetry(&state.telemetry, |t| t.inc(M_MEM_REJECTIONS, &[], 1));
    }
    let mut reply = HttpReply::report(fate.status(), report);
    if fate.retry_after() {
        reply.headers.push(("Retry-After", "1".to_owned()));
    }
    reply
}

/// `POST /v1/diagram`: parse the request document, answer the job it
/// names, frame the outcome. Fills `acc` for the access log and the
/// request counters as the request resolves.
fn handle_diagram(state: &ServerState, body: &[u8], acc: &mut AccessRecord) -> HttpReply {
    let parsed = std::str::from_utf8(body)
        .map_err(|_| "request body is not UTF-8".to_owned())
        .and_then(|text| Json::parse(text).map_err(|e| format!("request body is not JSON: {e}")));
    let doc = match parsed {
        Ok(doc) => doc,
        Err(message) => return HttpReply::report(400, &ServeReport::failure(message)),
    };
    let (fate, report) = match parse_job(state, &doc, &acc.rid) {
        Ok(job) => answer_job(state, job, acc),
        Err(message) => (Fate::Rejected, ServeReport::failure(message)),
    };
    acc.outcome = fate.label().to_owned();
    if let Some(run) = &report.report {
        acc.set_phases(run);
    }
    answer(state, fate, &report)
}

/// Reads a request document into a job, its options resolved against
/// the server's defaults. `Err` is the rejection's message.
fn parse_job(state: &ServerState, doc: &Json, rid: &str) -> Result<DiagramJob, String> {
    let field = |name: &str| doc.get(name).and_then(Json::as_str).map(str::to_owned);
    let (Some(net), Some(cal)) = (field("net"), field("cal")) else {
        return Err(
            "request must carry string members `net` and `cal` (optionally `io`, `options`)".into(),
        );
    };
    let io = field("io");
    let options_doc = doc.get("options");
    let opt = |name: &str| options_doc.and_then(|o| o.get(name));
    let margin = match opt("margin").map(|j| j.as_u64().ok_or(())) {
        None => state.default_options.margin,
        Some(Ok(m)) if i32::try_from(m).is_ok() => m as i32,
        _ => return Err("options.margin must be a small non-negative integer".into()),
    };
    let order = match opt("order").and_then(Json::as_str) {
        None => state.default_options.order,
        Some(order) => order
            .parse()
            .map_err(|_| format!("options.order must be def|most|few, not {order:?}"))?,
    };
    let timeout = match opt("timeout_ms").map(|j| j.as_u64().ok_or(())) {
        None | Some(Ok(0)) => state.default_timeout,
        Some(Ok(ms)) => Duration::from_millis(ms),
        Some(Err(())) => return Err("options.timeout_ms must be a non-negative integer".into()),
    }
    .min(state.timeout_ceiling);

    let options = RenderOptions { margin, order };
    let artifact = artifact_key(&net, &cal, io.as_deref(), &options);
    Ok(DiagramJob {
        rid: rid.to_owned(),
        net,
        cal,
        io,
        options,
        timeout,
        artifact,
    })
}

/// Runs `job` behind the admission gate; a refusal or a panic is its
/// fate too.
fn run_gated(state: &ServerState, job: DiagramJob) -> Computed {
    let timeout = job.timeout;
    match state.service.run(Some(timeout), |ctx| handle_job(state, job, ctx)) {
        Ok(Ok(computed)) => computed,
        Ok(Err(message)) => {
            Computed::failure(Fate::Panic, format!("request handler panicked: {message}"))
        }
        Err(SubmitError::Busy) => Computed::failure(
            Fate::Shed,
            "saturated: the admission queue is full; retry shortly",
        ),
        Err(SubmitError::Draining) => Computed::failure(Fate::DrainReject, DRAINING),
    }
}

/// Answers a job from the cache, or from a flight that coalesces
/// identical concurrent requests onto one pipeline run behind the
/// admission gate. Fills `acc`'s artifact, cache and deadline members.
fn answer_job(state: &ServerState, job: DiagramJob, acc: &mut AccessRecord) -> (Fate, ServeReport) {
    acc.artifact = job.artifact.clone();
    let key = job.artifact.clone();
    let (computed, cache, leads) = match cache_get(state, &key) {
        Some(cached) => (cached, CacheOutcome::Hit, false),
        None if state.service.draining() => {
            return (Fate::DrainReject, ServeReport::failure(DRAINING));
        }
        None => {
            let (computed, leads) = state.flight.run(&key, || {
                let computed = Arc::new(run_gated(state, job));
                // Insert while the flight is still open: anyone
                // arriving after the flight resolves must find the
                // cache already warm (no recompute window).
                if computed.fate.cacheable() && !computed.deadline_cancelled {
                    cache_put(state, key.clone(), &computed);
                }
                computed
            });
            let cache = if leads { CacheOutcome::Miss } else { CacheOutcome::Coalesced };
            (computed, cache, leads)
        }
    };

    let mut report = computed.report.clone();
    if computed.fate.ran() {
        report.cache = cache;
        acc.cache = cache.as_str().to_owned();
        acc.deadline_cancelled = computed.deadline_cancelled;
    }
    // Post-mortem triggers, leader-only so one incident leaves one
    // dump. A faulted or failed dump write never disturbs the response
    // — it surfaces as a `flight_dump_failed` degradation in the very
    // report being returned.
    let dump_reason = if computed.deadline_cancelled {
        Some("deadline")
    } else {
        computed.fate.dump_reason()
    };
    if let (true, Some(reason)) = (leads, dump_reason) {
        if !dump_blackbox(state, reason, Some(&acc.rid)) {
            if let Some(run) = report.report.as_mut() {
                run.push_degradation(cli_degradation(
                    "flight_dump_failed",
                    None,
                    format!("blackbox dump for request {} could not be written", acc.rid),
                ));
            }
        }
    }
    (computed.fate, report)
}

/// The `/stats` body: every counter is read back from the telemetry
/// series `/metrics` renders, so the two endpoints never disagree.
fn stats_snapshot(state: &ServerState) -> ServeStats {
    let cache = state.cache.stats();
    let t = &state.telemetry;
    let requests = |outcome: &str| t.counter(M_REQUESTS, &[("outcome", outcome)]);
    let consulted = |result: &str| t.counter(M_CACHE, &[("result", result)]);
    let win = t.window_summary(M_LATENCY);
    let (shard_live, shard_restarts) = match &state.shard {
        Some(s) => (s.fleet.live_count() as u64, s.fleet.restarts()),
        None => (0, 0),
    };
    ServeStats {
        shard_live,
        shard_restarts,
        requests: t.counter_sum(M_REQUESTS),
        clean: requests("clean"),
        degraded: requests("degraded"),
        failed: requests("failed") + requests("mem_reject") + requests("panic"),
        shed: requests("shed"),
        too_large: t.counter(M_TOO_LARGE, &[]),
        drain_rejects: requests("drain_reject"),
        deadline_cancelled: t.counter(M_DEADLINE, &[]),
        panics: requests("panic") + t.counter(M_CONNECTION_PANICS, &[]),
        cache_hits: consulted("hit"),
        cache_misses: consulted("miss"),
        coalesced: consulted("coalesced"),
        cache_bytes: cache.bytes as u64,
        cache_entries: cache.entries as u64,
        in_flight: state.service.in_flight() as u64,
        queued: state.service.queued() as u64,
        win_latency_count: win.count,
        win_latency_p50_ns: win.p50,
        win_latency_p90_ns: win.p90,
        win_latency_p99_ns: win.p99,
    }
}

/// `GET /metrics`: refresh the gauges from live structures, render
/// the Prometheus text exposition. The whole read path sits under the
/// `serve.telemetry` fault site — a fired fault (panic included)
/// answers `503 metrics unavailable` and leaves the server serving.
fn metrics_reply(state: &ServerState) -> HttpReply {
    let rendered = netart_fault::survive(netart_fault::sites::SERVE_TELEMETRY, || {
        let cache = state.cache.stats();
        let t = &state.telemetry;
        t.set_gauge("netart_serve_queue_depth", state.service.queued() as u64);
        t.set_gauge("netart_serve_in_flight", state.service.in_flight() as u64);
        t.set_gauge("netart_serve_cache_bytes", cache.bytes as u64);
        t.set_gauge("netart_serve_cache_entries", cache.entries as u64);
        if let Some(s) = &state.shard {
            // Per-shard liveness off the latest fleet broadcast: one
            // `netart_serve_shard_live{shard="k"}` series per shard.
            for (k, phase) in s.fleet.phases().iter().enumerate() {
                let idx = k.to_string();
                t.set_gauge_labelled(
                    M_SHARD_LIVE,
                    &[("shard", idx.as_str())],
                    u64::from(*phase == netart_engine::ShardPhase::Live),
                );
            }
        }
        t.render_prometheus()
    });
    match rendered {
        Some(body) => HttpReply::text(200, "text/plain; version=0.0.4", body),
        None => {
            state.telemetry.inc(M_TELEMETRY_FAULTS, &[], 1);
            HttpReply::text(503, "text/plain", "metrics unavailable\n".to_owned())
        }
    }
}

fn route_request(state: &Arc<ServerState>, method: &str, path: &str, body: &[u8]) -> HttpReply {
    match (method, path) {
        ("GET", "/healthz") => HttpReply::json(200, "{\"status\": \"ok\"}".to_owned()),
        ("GET", "/readyz") => {
            if state.service.draining() {
                HttpReply::json(503, "{\"status\": \"draining\"}".to_owned())
            } else if !state.shard.as_ref().is_none_or(|s| s.fleet.quorum_ok()) {
                // Sharded: this worker is fine, but the fleet lost its
                // readiness quorum (a sibling is down or quarantined).
                HttpReply::json(503, "{\"status\": \"quorum_lost\"}".to_owned())
            } else {
                HttpReply::json(200, "{\"status\": \"ready\"}".to_owned())
            }
        }
        ("GET", "/stats") => HttpReply::json(200, stats_snapshot(state).to_json_string()),
        ("GET", "/metrics") => metrics_reply(state),
        ("GET", "/debug/flight") => {
            if state.debug_endpoints {
                // A live snapshot of the flight ring, same schema as
                // the on-disk dumps — `netart blackbox` renders it.
                HttpReply::json(200, state.recorder.snapshot("debug", None).to_json_string())
            } else {
                HttpReply::report(
                    404,
                    &ServeReport::failure(
                        "debug endpoints are disabled; boot with --debug-endpoints",
                    ),
                )
            }
        }
        ("POST", "/v1/diagram") => {
            let rid = format!(
                "{}{:06}",
                state.rid_prefix,
                state.seq.fetch_add(1, Ordering::Relaxed)
            );
            let span = tracing::span!(tracing::Level::INFO, "serve.request", rid = rid.as_str());
            let started = Instant::now();
            let mut acc = AccessRecord::new(rid);
            let reply = span.in_scope(|| handle_diagram(state, body, &mut acc));
            acc.http_status = u32::from(reply.status);
            acc.latency_ns = ns(started.elapsed());
            record_telemetry(&state.telemetry, |t| {
                t.inc(M_REQUESTS, &[("outcome", &acc.outcome)], 1);
                if acc.cache != "none" {
                    t.inc(M_CACHE, &[("result", &acc.cache)], 1);
                }
                if acc.deadline_cancelled {
                    t.inc(M_DEADLINE, &[], 1);
                }
                t.observe(M_LATENCY, acc.latency_ns);
            });
            write_access_log(state, &acc);
            reply
        }
        (_, "/healthz" | "/readyz" | "/stats" | "/metrics" | "/debug/flight" | "/v1/diagram") => HttpReply::report(
            405,
            &ServeReport::failure(format!("{method} is not supported on {path}")),
        ),
        _ => HttpReply::report(404, &ServeReport::failure(format!("no such endpoint {path}"))),
    }
}

/// One connection, one request, one response. Runs on its own thread,
/// which also runs the request's pipeline behind the gate; the final
/// defence in depth — even a panic past the gate's `catch_unwind`
/// (routing, framing) kills only this connection.
///
/// Admission control runs here, on the declared `Content-Length`,
/// before a single body byte is buffered: over the `--max-body` cap is
/// `413` (a verdict on the input), over the memory governor's
/// remaining room is `503 Retry-After` (a verdict on the moment). A
/// body that fits leases its bytes on the governor until the response
/// is framed.
fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let budget_room = usize::try_from(state.mem_budget.remaining()).unwrap_or(usize::MAX);
    let reply = match read_request(&mut stream, state.max_body.min(budget_room)) {
        Ok(request) => {
            let body_lease = request.body.len() as u64;
            match state.mem_budget.try_charge("serve admission", body_lease) {
                // Lost the admission race to a concurrent request.
                Err(x) => answer(
                    state,
                    Fate::MemReject,
                    &ServeReport::failure(format!("over memory budget: {x}")),
                ),
                Ok(()) => {
                    let reply = match catch_unwind(AssertUnwindSafe(|| {
                        route_request(state, &request.method, &request.path, &request.body)
                    })) {
                        Ok(reply) => reply,
                        Err(_) => {
                            record_telemetry(&state.telemetry, |t| {
                                t.inc(M_CONNECTION_PANICS, &[], 1);
                            });
                            HttpReply::report(
                                500,
                                &ServeReport::failure(
                                    "internal error while framing the response",
                                ),
                            )
                        }
                    };
                    state.mem_budget.release(body_lease);
                    reply
                }
            }
        }
        Err(RequestError::BodyTooLarge { declared, .. }) if declared > state.max_body => {
            record_telemetry(&state.telemetry, |t| t.inc(M_TOO_LARGE, &[], 1));
            HttpReply::report(
                413,
                &ServeReport::failure(format!(
                    "request body of {declared} bytes exceeds the {}-byte cap",
                    state.max_body
                )),
            )
        }
        Err(RequestError::BodyTooLarge { declared, limit }) => answer(
            state,
            Fate::MemReject,
            &ServeReport::failure(format!(
                "declared body of {declared} bytes exceeds the memory budget's remaining \
                 {limit} byte(s); retry shortly"
            )),
        ),
        Err(RequestError::Malformed(message)) => {
            HttpReply::report(400, &ServeReport::failure(message))
        }
        Err(RequestError::Io(e)) => {
            // Probe connections and abrupt client deaths: nothing to
            // answer, but worth a diagnostics-stream breadcrumb.
            tracing::debug!("connection dropped before a request", error = e.to_string());
            return;
        }
    };
    let _ = respond(
        &mut stream,
        reply.status,
        reply.content_type,
        &reply.headers,
        &reply.body,
    );
}

fn parse_millis(args: &ParsedArgs, flag: &str, default_ms: u64) -> Result<Duration, CliError> {
    Ok(Duration::from_millis(args.parsed(flag, default_ms)?))
}

/// `netart serve [--addr host:port] [-L libdir] [--workers n]
/// [--queue-depth n] [--default-timeout ms] [--timeout-ceiling ms]
/// [--max-body bytes] [--cache-bytes n] [--drain-grace ms]
/// [--route-timeout ms] [--max-nodes n] [-m margin] [--order o]
/// [--input-policy p] [--inject spec] [--access-log path]
/// [--trace-level lvl] [--trace-out path] [--log-json]
/// [--memory-budget bytes] [--max-input-bytes n] [--max-network-bytes n]
/// [--blackbox path] [--debug-endpoints]
/// [--shards n] [--quorum k] [--crash-limit m] [--crash-window ms]`
///
/// `--shards N` boots a supervisor instead: the listener is bound
/// once, N single-shard worker processes inherit its fd (each running
/// this same serve loop in a hidden `--shard-worker` mode), and the
/// supervisor reaps deaths, respawns with the engine's deterministic
/// backoff, quarantines crash-looping shards (`--crash-limit` deaths
/// within `--crash-window` ms) and fans out SIGTERM/SIGUSR1. Worker
/// rids gain an `s{shard}-` prefix, `netart_build_info` a `shard`
/// label, and `/readyz` answers 503 (`quorum_lost`) whenever fewer
/// than `--quorum` shards (default: all) are live.
///
/// `--memory-budget` (k/m/g suffixes accepted) arms the global memory
/// governor: declared request bodies over the remaining room answer
/// `503 Retry-After` (and bump `netart_serve_mem_rejections_total` in
/// `/metrics`) instead of being buffered, admitted bodies lease their
/// bytes for the life of the request, and each job's parse is governed
/// by a snapshot of the remaining room — an exhausted parse answers
/// `503` with the `ND015` diagnostic inline. `--max-input-bytes` /
/// `--max-network-bytes` govern the boot-time library load.
///
/// Boots the resident diagram service and blocks until SIGINT/SIGTERM
/// drains it. The first stdout line is `serving on http://ADDR` (the
/// resolved address, so `--addr 127.0.0.1:0` works for tests and
/// supervisors). Endpoints: `GET /healthz`, `GET /readyz`,
/// `GET /stats`, `GET /metrics` (Prometheus text exposition),
/// `POST /v1/diagram` with a JSON document
/// `{"net": …, "cal": …, "io"?: …, "options"?: {"timeout_ms",
/// "margin", "order"}}`. `--access-log` appends one JSON line per
/// diagram request; `--trace-out` writes the Chrome/Perfetto trace at
/// drain.
///
/// Post-mortem: a flight recorder retains the last
/// [`FlightRecorder::DEFAULT_CAPACITY`] span/event records in a ring;
/// a panicking request, a deadline breach, a 500-class fault, or a
/// SIGUSR1 freezes it into a schema-versioned dump at `--blackbox`
/// (default `blackbox.json`; render with `netart blackbox`).
/// `--debug-endpoints` additionally answers `GET /debug/flight` with
/// a live snapshot.
///
/// # Errors
///
/// Any [`CliError`] condition at boot (bad flags, unreadable library,
/// unbindable address). After boot the server degrades, it does not
/// error.
pub fn run_serve(argv: &[String]) -> Result<RunOutput, CliError> {
    let session = Session::parse(&SERVE, argv)?;
    let args = &session.args;
    // `--shards N` makes this process the supervisor: it binds the
    // listener, re-execs N workers in the hidden `--shard-worker`
    // mode, and never serves HTTP itself.
    if args.value("shard-worker").is_none() && args.value("shards").is_some() {
        let shards = args.parsed("shards", 1usize)?.max(1);
        return session.close(crate::shard::run_supervisor(argv, args, shards));
    }
    // The flight recorder is always on in serve: INFO keeps the phase
    // spans and warn/error events in the ring while the per-net DEBUG
    // spans stay un-dispatched (negligible steady-state cost).
    let (flight_recorder, recorder) =
        FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY, tracing::Level::INFO);
    let session = session.start(vec![Box::new(flight_recorder)])?;
    session.close(serve(&session, recorder))
}

/// Serve answers requests, not a run: no `--report-json`, no
/// `--strict`.
static SERVE: Spec = Spec {
    shared: UNREPORTED,
    options: &[
        "addr", "L", "workers", "queue-depth", "default-timeout", "timeout-ceiling", "max-body",
        "cache-bytes", "drain-grace", "route-timeout", "max-nodes", "m", "order", "access-log",
        "memory-budget", "blackbox", "shards", "quorum", "crash-limit", "crash-window",
        "shard-worker", "shard-count", "shard-fd",
    ],
    switches: &["debug-endpoints"],
    operands: (0, 0),
    newline: true,
};

fn serve(session: &Session, recorder: FlightHandle) -> Result<RunOutput, CliError> {
    let args = &session.args;
    // Hidden worker mode: shard identity injected by the supervisor.
    let shard_identity = match args.value("shard-worker") {
        Some(_) => Some((
            args.parsed("shard-worker", 0u32)?,
            args.parsed("shard-count", 1u32)?.max(1),
        )),
        None => None,
    };
    let policy = session.policy;
    let base_budget = budget_from_args(args)?;
    let mem_budget = match args.value("memory-budget") {
        Some(s) => MemBudget::bytes(parse_bytes("memory-budget", s)?),
        None => MemBudget::unlimited(),
    };

    let mut boot_degs = Vec::new();
    let library = load_library(session, &mut boot_degs)?;

    let margin = args.parsed("m", 4i32)?;
    let order = order_from_args(args)?;
    let timeout_ceiling = parse_millis(args, "timeout-ceiling", 30_000)?;
    let default_timeout = parse_millis(args, "default-timeout", 10_000)?.min(timeout_ceiling);
    let drain_grace = parse_millis(args, "drain-grace", 5_000)?;
    let config = ServiceConfig {
        workers: args.parsed("workers", 2u32)?,
        queue_depth: args.parsed("queue-depth", 4usize)?,
        drain_grace,
    };

    let telemetry = Arc::new(Telemetry::new());
    // Standard Prometheus boot idioms: an info-metric gauge pinned to
    // 1 whose labels carry the build identity (plus the shard index in
    // worker mode), and the boot instant as seconds since the epoch
    // (`process_start_time_seconds` family).
    let version = env!("CARGO_PKG_VERSION");
    let git = option_env!("NETART_GIT_SHA").unwrap_or("unknown");
    match shard_identity {
        Some((index, _)) => {
            let idx = index.to_string();
            telemetry.set_gauge_labelled(
                "netart_build_info",
                &[("version", version), ("git", git), ("shard", idx.as_str())],
                1,
            );
            // Register the restart counter at zero so the series is
            // scrapeable before the first respawn.
            telemetry.inc(M_SHARD_RESTARTS, &[], 0);
        }
        None => telemetry.set_gauge_labelled(
            "netart_build_info",
            &[("version", version), ("git", git)],
            1,
        ),
    }
    telemetry.set_gauge(
        "netart_serve_start_time_seconds",
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    );
    let access_log = match args.value("access-log") {
        Some(path) => Some(Mutex::new(File::create(path).map_err(CliError::io(path))?)),
        None => None,
    };

    let shard = shard_identity.map(|(index, count)| {
        let fleet = Arc::new(FleetView::new(count as usize));
        // Supervisor broadcasts arrive over stdin; increases of the
        // cumulative restart counter land in this worker's own series.
        let restarts_sink = Arc::clone(&telemetry);
        crate::shard::spawn_fleet_listener(Arc::clone(&fleet), move |delta| {
            restarts_sink.inc(M_SHARD_RESTARTS, &[], delta);
        });
        ShardRuntime { index, fleet }
    });
    let rid_prefix = match &shard {
        Some(s) => format!("s{}-r", s.index),
        None => "r".to_owned(),
    };
    let state = Arc::new(ServerState {
        service: Service::new(&config),
        library,
        policy,
        base_budget,
        flight: SingleFlight::new(),
        cache: ByteCache::new(args.parsed("cache-bytes", 16 * 1024 * 1024usize)?),
        telemetry,
        seq: AtomicU64::new(0),
        rid_prefix,
        shard,
        access_log,
        default_timeout,
        timeout_ceiling,
        max_body: args.parsed("max-body", 1024 * 1024usize)?,
        mem_budget,
        default_options: RenderOptions { margin, order },
        recorder,
        blackbox_path: PathBuf::from(args.value("blackbox").unwrap_or("blackbox.json")),
        debug_endpoints: args.has("debug-endpoints"),
    });

    let addr = args.value("addr").unwrap_or("127.0.0.1:4817");
    let listener = match args.value("shard-fd") {
        Some(_) => {
            let fd = args.parsed("shard-fd", -1i32)?;
            if fd < 0 {
                return Err(ArgError::BadValue {
                    flag: "shard-fd".into(),
                    value: fd.to_string(),
                }
                .into());
            }
            // Safety: the supervisor bound this listener, cleared
            // FD_CLOEXEC, and handed us its fd over exec; we are the
            // sole owner in this process.
            unsafe { TcpListener::from_raw_fd(fd) }
        }
        None => TcpListener::bind(addr).map_err(CliError::io(addr))?,
    };
    let local = listener.local_addr().map_err(CliError::io(addr))?;
    listener.set_nonblocking(true).map_err(CliError::io(addr))?;

    // The contract with supervisors and tests: the first stdout line
    // names the resolved address, flushed before any request lands.
    // Shard workers report readiness to their supervisor instead (it
    // already printed the address line for the fleet).
    match &state.shard {
        Some(s) => println!("shard {} ready", s.index),
        None => println!("serving on http://{local}"),
    }
    let _ = std::io::stdout().flush();
    for d in &boot_degs {
        eprintln!("warning: {}", d.detail.as_deref().unwrap_or(&d.kind));
    }

    crate::batch::reset_signal_drain();
    let connections = Arc::new(AtomicUsize::new(0));
    let mut draining_since: Option<Instant> = None;
    loop {
        if crate::batch::take_signal_flight() {
            // SIGUSR1: an on-demand blackbox of the live ring — "what
            // is this server doing right now" without stopping it.
            dump_blackbox(&state, "signal", None);
        }
        let stop_requested = crate::batch::signal_drain_requested()
            // A worker whose supervisor died (stdin EOF) drains itself
            // rather than squatting on the shared socket.
            || state.shard.as_ref().is_some_and(|s| s.fleet.orphaned());
        if draining_since.is_none() && stop_requested {
            // Readiness and admission close together: `/readyz` reads
            // the gate's draining state. Waiting and running requests
            // keep their connections and finish within the grace.
            state.service.drain();
            draining_since = Some(Instant::now());
        }
        // Accept everything already pending *before* judging whether
        // the drain has settled: a connection that completed its
        // handshake before the signal must be served, not dropped by
        // an accept/settle race.
        while let Ok((stream, _peer)) = listener.accept() {
            let state = Arc::clone(&state);
            let connections = Arc::clone(&connections);
            connections.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                handle_connection(&state, stream);
                connections.fetch_sub(1, Ordering::SeqCst);
            });
        }
        if let Some(since) = draining_since {
            let settled =
                state.service.drained() && connections.load(Ordering::SeqCst) == 0;
            // The hard stop covers a connection wedged on a dead
            // client: drain grace for the work, a little more for the
            // final response writes.
            if settled || since.elapsed() > drain_grace + Duration::from_secs(2) {
                break;
            }
        }
        std::thread::sleep(ACCEPT_TICK);
    }

    let stats = stats_snapshot(&state);
    Ok(RunOutput::new(
        format!(
            "drained cleanly: {} requests ({} clean, {} degraded, {} failed, {} shed), \
             {} cache hits, {} coalesced, {} panics contained",
            stats.requests,
            stats.clean,
            stats.degraded,
            stats.failed,
            stats.shed,
            stats.cache_hits,
            stats.coalesced,
            stats.panics,
        ),
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_keys_ignore_whitespace_but_not_content_or_options() {
        let options = RenderOptions {
            margin: 4,
            order: NetOrder::Definition,
        };
        let a = artifact_key("n0 u0 y\nn0 u1 a\n", "u0 inv\n", None, &options);
        let b = artifact_key("n0 u0 y   \r\n\r\nn0 u1 a\n", "u0 inv\n", None, &options);
        assert_eq!(a, b, "line-normalization: same artifact");

        let c = artifact_key("n0 u0 y\nn0 u1 b\n", "u0 inv\n", None, &options);
        assert_ne!(a, c, "different netlist: different artifact");

        let wider = RenderOptions {
            margin: 8,
            order: NetOrder::Definition,
        };
        let d = artifact_key("n0 u0 y\nn0 u1 a\n", "u0 inv\n", None, &wider);
        assert_ne!(a, d, "different options: different artifact");

        let e = artifact_key("n0 u0 y\nn0 u1 a\n", "u0 inv\n", Some("in in\n"), &options);
        assert_ne!(a, e, "io file participates in the address");
    }

    #[test]
    fn artifact_keys_are_stable_hex() {
        let options = RenderOptions {
            margin: 4,
            order: NetOrder::Definition,
        };
        let key = artifact_key("x", "y", None, &options);
        assert_eq!(key.len(), 16);
        assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(key, artifact_key("x", "y", None, &options));
    }

    #[test]
    fn each_fate_fixes_status_label_retry_after_and_what_it_leaves() {
        use Fate::*;
        // (fate, status, outcome label, Retry-After, ran, cacheable, dump)
        let table = [
            (Clean, 200, "clean", false, true, true, None),
            (Degraded, 200, "degraded", false, true, true, None),
            (Rejected, 422, "failed", false, true, false, None),
            (Failed, 500, "failed", false, true, false, Some("fault")),
            (MemReject, 503, "mem_reject", true, true, false, None),
            (Shed, 429, "shed", true, false, false, None),
            (DrainReject, 503, "drain_reject", false, false, false, None),
            (Panic, 500, "panic", false, false, false, Some("panic")),
        ];
        for (fate, status, label, retry_after, ran, cacheable, dump) in table {
            assert_eq!(
                (
                    fate.status(),
                    fate.label(),
                    fate.retry_after(),
                    fate.ran(),
                    fate.cacheable(),
                    fate.dump_reason(),
                ),
                (status, label, retry_after, ran, cacheable, dump),
                "{fate:?}"
            );
        }
    }

    #[test]
    fn artifact_keys_are_fnv1a_of_the_normalized_request() {
        let options = RenderOptions {
            margin: 4,
            order: NetOrder::Definition,
        };
        // FNV-1a 64 of "x\n" 0xff "y\n" 0xff 0xff "m=4;order=Definition".
        assert_eq!(artifact_key("x\r\n\n", "y", None, &options), "ef56f595a3550748");
    }
}
