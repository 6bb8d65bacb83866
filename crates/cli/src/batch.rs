//! `netart batch` — the resilient multi-input front end over
//! [`netart_engine`].
//!
//! Inputs arrive as positional operands, each one of:
//!
//! * a **directory** — every `*.net` file inside (sorted) becomes a
//!   job, paired with its `<stem>.cal` sibling and optional
//!   `<stem>.io`;
//! * a **`.net` file** — one job, same sibling convention;
//! * any **other file** — a manifest: one job per non-comment line,
//!   either `net-list call-file [io-file]` or a bare `.net` path,
//!   resolved relative to the manifest's directory.
//!
//! Each job runs the full parse→doctor→place→route→emit pipeline on a
//! worker pool with panic isolation, watchdog cancellation, retry
//! with backoff for transient failures, and quarantine for poison
//! inputs; see the crate-level docs of `netart-engine`. Outputs are
//! written atomically (`.tmp` + rename), so an interrupted batch
//! never leaves a partial diagram file. The aggregate
//! [`BatchManifest`] goes to `--report-json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use netart::netlist::doctor::{DoctorCode, InputPolicy};
use netart::netlist::ingest::{self, IngestBudgets, IngestError, Record};
use netart::netlist::Library;
use netart::obs::{AllocSnapshot, BatchManifest, FlightHandle, FlightRecorder, JobRecord};
use netart::route::RouteConfig;
use netart::place::PlaceConfig;
use netart_engine::{EngineConfig, JobContext, JobFailure, JobSuccess};

use crate::commands::{
    budget_from_args, emit_artifacts, load_library, load_network_files, ns, CliError,
};
use crate::session::{push_warnings, RunOutput, Session, Spec};
use crate::sys;

/// Set by the process signal handler; [`run_batch`] hands its reader
/// to the engine as the drain signal.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT/SIGTERM handlers that request a graceful drain of
/// the running batch. Called by the `netart` binary before
/// [`run_batch`]; in-process callers (tests) may skip it and drive
/// drain through the engine directly.
pub fn install_drain_handlers() {
    sys::on_signals(&[sys::SIGINT, sys::SIGTERM], &SIGNAL_DRAIN);
}

/// Whether a SIGINT/SIGTERM drain request is pending. Observed by
/// [`run_batch`]'s engine and by `netart serve`'s accept loop.
pub(crate) fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

/// Set by the SIGUSR1 handler; consumed by `netart serve`'s accept
/// loop, which answers with an on-demand blackbox dump.
static SIGNAL_FLIGHT: AtomicBool = AtomicBool::new(false);

/// Installs a SIGUSR1 handler that requests an on-demand blackbox
/// dump from the running `netart serve`. Called by the binary before
/// [`crate::run_serve`].
pub fn install_flight_handler() {
    sys::on_signals(&[sys::SIGUSR1], &SIGNAL_FLIGHT);
}

/// Takes (and clears) a pending SIGUSR1 dump request, so one signal
/// produces exactly one dump.
pub(crate) fn take_signal_flight() -> bool {
    SIGNAL_FLIGHT.swap(false, Ordering::SeqCst)
}

/// Clears a pending drain request so each resident run starts fresh
/// (a signal delivered to a *previous* run must not drain this one).
pub(crate) fn reset_signal_drain() {
    SIGNAL_DRAIN.store(false, Ordering::SeqCst);
}

/// One batch job: a netlist group plus its output stem.
#[derive(Debug, Clone)]
struct BatchJob {
    net: PathBuf,
    cal: PathBuf,
    io: Option<PathBuf>,
    stem: String,
}

/// Builds a job from a `.net` path via the sibling convention.
fn job_from_net(net: PathBuf) -> Result<BatchJob, CliError> {
    let cal = net.with_extension("cal");
    if !cal.is_file() {
        return Err(CliError::Other(format!(
            "{}: missing companion call file {}",
            net.display(),
            cal.display()
        )));
    }
    let io = net.with_extension("io");
    let io = io.is_file().then_some(io);
    let stem = net
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    Ok(BatchJob { net, cal, io, stem })
}

/// Parses one manifest record: `net cal [io]` or a bare `.net` path.
fn job_from_manifest_record(
    base: &Path,
    record: &Record,
    manifest: &Path,
) -> Result<BatchJob, CliError> {
    let fields = &record.fields;
    match fields.as_slice() {
        [net] => job_from_net(base.join(net)),
        [net, cal] | [net, cal, _] => {
            let net = base.join(net);
            let stem = net
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            Ok(BatchJob {
                net,
                cal: base.join(cal),
                io: fields.get(2).map(|io| base.join(io)),
                stem,
            })
        }
        _ => Err(CliError::Other(format!(
            "{}:{}: expected `net-list [call-file [io-file]]`, got {} fields",
            manifest.display(),
            record.line,
            fields.len()
        ))),
    }
}

/// Expands every positional operand into jobs, keyed and sorted by
/// the net-list path so the batch order (and the manifest) is
/// deterministic regardless of how the inputs were spelled.
fn collect_jobs(
    positionals: &[String],
    budgets: &IngestBudgets,
) -> Result<BTreeMap<String, BatchJob>, CliError> {
    let mut jobs: BTreeMap<String, BatchJob> = BTreeMap::new();
    let mut add = |job: BatchJob| {
        jobs.insert(job.net.to_string_lossy().into_owned(), job);
    };
    for operand in positionals {
        let path = PathBuf::from(operand);
        if path.is_dir() {
            let mut nets: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(CliError::io(&path))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "net"))
                .collect();
            nets.sort();
            if nets.is_empty() {
                return Err(CliError::Other(format!(
                    "{}: no .net job inputs in directory",
                    path.display()
                )));
            }
            for net in nets {
                add(job_from_net(net)?);
            }
        } else if path.extension().is_some_and(|e| e == "net") {
            add(job_from_net(path)?);
        } else {
            // A manifest is a record file, read under the input budget
            // like every other — a hostile multi-gigabyte "manifest" is
            // refused, not slurped.
            let file = std::fs::File::open(&path).map_err(CliError::io(&path))?;
            let records =
                ingest::read_records(std::io::BufReader::new(file), &budgets.input, "batch manifest")
                    .map_err(|e| match e {
                        IngestError::Io(source) => CliError::Io {
                            path: path.clone(),
                            source,
                        },
                        IngestError::Exhausted(x) => CliError::ResourceExhausted {
                            path: path.clone(),
                            message: format!("{} {x}", DoctorCode::ResourceExhausted.as_str()),
                        },
                    })?;
            budgets.input.release(records.iter().map(Record::cost).sum());
            if records.is_empty() {
                return Err(CliError::Other(format!(
                    "{}: manifest lists no jobs",
                    path.display()
                )));
            }
            let base = path.parent().unwrap_or(Path::new(".")).to_owned();
            for record in &records {
                add(job_from_manifest_record(&base, record, &path)?);
            }
        }
    }
    // Output stems must be unique or jobs would overwrite each other.
    let mut stems: BTreeMap<&str, &str> = BTreeMap::new();
    for (key, job) in &jobs {
        if let Some(first) = stems.insert(job.stem.as_str(), key.as_str()) {
            return Err(CliError::Other(format!(
                "jobs `{first}` and `{key}` both emit `{}.esc`; rename one input",
                job.stem
            )));
        }
    }
    Ok(jobs)
}

/// Writes `contents` to `path` atomically: a `.tmp` sibling is
/// written first and renamed into place, so readers (and interrupted
/// batches) never observe a partial file.
fn write_atomic(path: &Path, contents: &str) -> Result<(), CliError> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    std::fs::write(&tmp, contents).map_err(CliError::io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(CliError::io(path))
}

/// One pipeline attempt for one job. Classification contract with the
/// engine: `Err(transient)` retries (injected faults, budget
/// exhaustion below the final attempt, watchdog cancellation),
/// `Err(permanent)` fails immediately (genuine parse/IO errors), `Ok`
/// resolves the job as `ok`/`degraded` by degradation count.
#[allow(clippy::too_many_arguments)]
fn attempt_job(
    job: &BatchJob,
    ctx: &JobContext,
    lib: &Library,
    policy: InputPolicy,
    base_budget: netart::route::Budget,
    ingest_budgets: &IngestBudgets,
    out_dir: &Path,
    strict_inputs: bool,
) -> Result<JobSuccess, JobFailure> {
    let fired_before = netart_fault::fired_count();
    // A failure that coincides with a newly fired fault site is
    // injected, hence transient. (With `--jobs` > 1 a concurrent
    // job's fault can blur the attribution; chaos tests pin
    // `--jobs 1`.)
    let classify = |e: CliError| {
        if netart_fault::fired_count() > fired_before {
            JobFailure::transient(e.to_string())
        } else {
            JobFailure::permanent(e.to_string())
        }
    };
    // Heap attribution window for this attempt (a no-op stub unless
    // built with `--features alloc-profile`; exact with `--jobs 1`).
    let alloc_base = AllocSnapshot::capture();
    let t_parse = Instant::now();
    let parse_tag = netart::obs::enter_phase("parse");
    // Fresh per-job budgets with the configured limits: a finished
    // job's network charges must not starve the jobs after it.
    let budgets = ingest_budgets.fresh();
    let (network, mut cli_degs) = load_network_files(
        lib.clone(),
        &job.net,
        &job.cal,
        job.io.as_deref(),
        policy,
        &budgets,
    )
    .map_err(classify)?;
    drop(parse_tag);
    let parse_ns = ns(t_parse.elapsed());

    // Retries escalate the routing budget, like the salvage cascade
    // escalates per net: a transiently tight budget deserves a real
    // second chance, not an identical rerun.
    let escalation = 1u32 << (ctx.attempt - 1).min(16);
    let route = RouteConfig::new()
        .with_budget(base_budget.scaled(escalation))
        .with_cancel(ctx.cancel.clone());
    let outcome = netart::Generator::new()
        .with_placing(PlaceConfig::new())
        .with_routing(route)
        .generate(network);

    if ctx.cancel.is_cancelled() {
        // Watchdog timeout or drain: the routed result is truncated;
        // never emit it.
        return Err(JobFailure::transient("attempt cancelled".to_owned()));
    }
    let over_budget = outcome.report.net_stats.iter().any(|s| s.over_budget);
    if over_budget && !base_budget.is_unlimited() && !ctx.last_attempt {
        return Err(JobFailure::transient(format!(
            "budget exhausted at escalation x{escalation}; retrying with a larger budget"
        )));
    }

    let artifacts = emit_artifacts(
        &outcome,
        "netart",
        &job.stem,
        ("parse", parse_ns),
        &alloc_base,
        &mut cli_degs,
    )
    .map_err(classify)?;
    let esc_path = out_dir.join(format!("{}.esc", job.stem));
    write_atomic(&esc_path, &artifacts.escher).map_err(classify)?;
    let svg_path = out_dir.join(format!("{}.svg", job.stem));
    write_atomic(&svg_path, &artifacts.svg).map_err(classify)?;
    let report = artifacts.report;
    let degradations = report.degradations.len();
    if strict_inputs && degradations > 0 && !ctx.last_attempt {
        // `--strict` batches treat any degradation as retry-worthy
        // only when it was injected; otherwise accept it.
        if netart_fault::fired_count() > fired_before {
            return Err(JobFailure::transient(
                "degraded by an injected fault; retrying".to_owned(),
            ));
        }
    }
    Ok(JobSuccess {
        report: Some(report),
        degradations,
    })
}

/// `netart batch [--jobs n] [--max-attempts n] [--job-timeout ms]
/// [--drain-grace ms] [--route-timeout ms] [--max-nodes n]
/// [--out-dir dir] [--report-json manifest.json] [--strict]
/// [--input-policy p] [--inject spec] [--trace-level lvl] [--log-json]
/// [-L libdir] <dir | jobs.list | job.net> […]`
///
/// Runs every job through the full pipeline on a worker pool with
/// per-job isolation, watchdog cancellation, retry/backoff and
/// quarantine, then writes the aggregate [`BatchManifest`]. Exit
/// codes mirror the single-run CLI: 0 when every job is `ok`, 2 when
/// any job degraded / failed / was quarantined or skipped (1 under
/// `--strict`), 1 when the batch itself could not run.
///
/// # Errors
///
/// Any [`CliError`] condition (bad flags, no jobs, unreadable
/// library, unwritable manifest).
pub fn run_batch(argv: &[String]) -> Result<RunOutput, CliError> {
    let session = Session::parse(&BATCH, argv)?;
    // `--blackbox <path>` arms the flight recorder: span closes and
    // events ride the fan-out into a bounded ring, and a quarantined
    // job freezes the ring into a post-mortem dump at that path.
    let mut recorders: Vec<Box<dyn tracing::Subscriber>> = Vec::new();
    let mut blackbox = None;
    if let Some(path) = session.args.value("blackbox") {
        let (recorder, handle) =
            FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY, tracing::Level::INFO);
        blackbox = Some((handle, PathBuf::from(path)));
        recorders.push(Box::new(recorder));
    }
    let session = session.start(recorders)?;
    session.close(batch(&session, blackbox.as_ref()))
}

/// Batch writes its manifest, not a trace: no `--trace-out`.
static BATCH: Spec = Spec {
    shared: &[
        "trace-level", "log-json", "report-json", "input-policy", "inject", "max-input-bytes",
        "max-network-bytes", "strict",
    ],
    options: &[
        "jobs", "max-attempts", "job-timeout", "drain-grace", "route-timeout", "max-nodes", "L",
        "out-dir", "blackbox",
    ],
    switches: &[],
    operands: (1, usize::MAX),
    newline: true,
};

fn batch(
    session: &Session,
    blackbox: Option<&(FlightHandle, PathBuf)>,
) -> Result<RunOutput, CliError> {
    let args = &session.args;
    let policy = session.policy;
    let base_budget = budget_from_args(args)?;
    let ingest_budgets = &session.budgets;
    let strict = session.strict();

    let mut lib_degs = Vec::new();
    let lib = load_library(session, &mut lib_degs)?;
    let jobs = collect_jobs(args.positionals(), ingest_budgets)?;
    let inputs: Vec<String> = jobs.keys().cloned().collect();
    let out_dir = PathBuf::from(args.value("out-dir").unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(CliError::io(&out_dir))?;

    let job_timeout = match args.value("job-timeout") {
        Some(_) => Some(Duration::from_millis(args.parsed("job-timeout", 0)?)),
        None => None,
    };
    let config = EngineConfig {
        workers: args.parsed("jobs", 1u32)?,
        max_attempts: args.parsed("max-attempts", 3u32)?,
        job_timeout,
        drain_grace: Duration::from_millis(args.parsed("drain-grace", 5_000)?),
    };

    // A quarantined job freezes the flight ring into the blackbox.
    let on_quarantine = |record: &JobRecord| {
        if let Some((handle, path)) = blackbox {
            let dump = handle.snapshot("quarantine", Some(&record.input));
            if !crate::blackbox::write_dump(path, &dump) {
                handle.note_degradation("flight_dump_failed");
            }
        }
    };
    // The process signal flag is the engine's drain signal.
    reset_signal_drain();
    let manifest: BatchManifest = netart_engine::run(
        "netart batch",
        &inputs,
        &config,
        signal_drain_requested,
        on_quarantine,
        |input, ctx| match jobs.get(input) {
            Some(job) => attempt_job(
                job,
                ctx,
                &lib,
                policy,
                base_budget,
                ingest_budgets,
                &out_dir,
                strict,
            ),
            None => Err(JobFailure::permanent(format!("unknown job key `{input}`"))),
        },
    );

    session.write_stream("report-json", || manifest.to_json_string())?;

    let s = &manifest.summary;
    let mut message = format!(
        "batch: {} job(s) on {} worker(s) — ok {}, degraded {}, failed {}, quarantined {}, skipped {}{}",
        manifest.jobs.len(),
        manifest.jobs_in_flight,
        s.ok,
        s.degraded,
        s.failed,
        s.quarantined,
        s.skipped,
        if manifest.drained { " (drained)" } else { "" },
    );
    push_warnings(&mut message, &lib_degs);
    for job in &manifest.jobs {
        if let Some(error) = &job.error {
            message.push_str(&format!(
                "\nwarning: {} {} after {} attempt(s): {error}",
                job.input,
                job.status.as_str(),
                job.attempts
            ));
        }
    }
    Ok(RunOutput::new(message, manifest.exit_code() != 0))
}
