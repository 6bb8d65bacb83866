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
use std::sync::Arc;
use std::time::{Duration, Instant};

use netart::diagram::svg;
use netart::netlist::doctor::{DoctorCode, InputPolicy};
use netart::netlist::ingest::{self, IngestBudgets, IngestError};
use netart::netlist::Library;
use netart::obs::{AllocSnapshot, BatchManifest, FlightRecorder};
use netart::route::{CancelToken, RouteConfig};
use netart::place::PlaceConfig;
use netart_engine::{EngineConfig, JobContext, JobFailure, JobSuccess};

use crate::commands::{
    arm_faults, budget_from_args, budgets_from_args, emit_artifacts, exhausted_output,
    input_policy, install_subscriber, install_subscriber_with, load_library, load_network_files,
    ns, stdout_claimed, write_or_stdout, CliError, RunOutput,
};
use crate::ParsedArgs;

/// Set by the process signal handler; bridged onto the engine's drain
/// token by [`run_batch`]'s poller thread.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT/SIGTERM handlers that request a graceful drain of
/// the running batch. Called by the `netart` binary before
/// [`run_batch`]; in-process callers (tests) may skip it and drive
/// drain through the engine directly.
pub fn install_drain_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_signum: i32) {
            SIGNAL_DRAIN.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: the handler only performs an atomic store, which is
        // async-signal-safe; the raw `signal` binding avoids a libc
        // dependency.
        unsafe {
            let handler = on_signal as *const () as usize;
            let _ = signal(SIGINT, handler);
            let _ = signal(SIGTERM, handler);
        }
    }
}

/// Whether a SIGINT/SIGTERM drain request is pending. Observed by
/// [`run_batch`]'s poller and by `netart serve`'s accept loop.
pub(crate) fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

/// Set by the SIGUSR1 handler; consumed by `netart serve`'s accept
/// loop, which answers with an on-demand blackbox dump.
static SIGNAL_FLIGHT: AtomicBool = AtomicBool::new(false);

/// Installs a SIGUSR1 handler that requests an on-demand blackbox
/// dump from the running `netart serve`. Same raw-`signal` pattern as
/// [`install_drain_handlers`]; called by the binary before
/// [`crate::run_serve`].
pub fn install_flight_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_signum: i32) {
            SIGNAL_FLIGHT.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGUSR1: i32 = 10;
        // SAFETY: the handler only performs an atomic store, which is
        // async-signal-safe; the raw `signal` binding avoids a libc
        // dependency.
        unsafe {
            let _ = signal(SIGUSR1, on_signal as *const () as usize);
        }
    }
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

/// Parses one manifest line: `net cal [io]` or a bare `.net` path.
fn job_from_manifest_line(
    base: &Path,
    line: &str,
    manifest: &Path,
    lineno: usize,
) -> Result<BatchJob, CliError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
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
            "{}:{lineno}: expected `net-list [call-file [io-file]]`, got {} fields",
            manifest.display(),
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
                .map_err(|source| CliError::Io {
                    path: path.clone(),
                    source,
                })?
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
            // A manifest streams line-at-a-time under the input budget
            // like every other ingested file — a hostile multi-gigabyte
            // "manifest" is refused, not slurped.
            let file = std::fs::File::open(&path).map_err(|source| CliError::Io {
                path: path.clone(),
                source,
            })?;
            let base = path.parent().unwrap_or(Path::new(".")).to_owned();
            let mut any = false;
            let mut bad: Option<CliError> = None;
            let streamed = ingest::for_each_line(
                std::io::BufReader::new(file),
                &budgets.input,
                "batch manifest",
                |lineno, line| {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        return Ok(());
                    }
                    match job_from_manifest_line(&base, line, &path, lineno) {
                        Ok(job) => {
                            add(job);
                            any = true;
                            Ok(())
                        }
                        Err(e) => {
                            // Stash the structured error; the sentinel
                            // below only stops the streaming loop.
                            bad = Some(e);
                            Err(IngestError::Parse(netart::netlist::ParseError::new(
                                lineno,
                                "unusable manifest line",
                            )))
                        }
                    }
                },
            );
            if let Some(e) = bad {
                return Err(e);
            }
            streamed.map_err(|e| match e {
                IngestError::Io(source) => CliError::Io {
                    path: path.clone(),
                    source,
                },
                IngestError::Exhausted(x) => CliError::ResourceExhausted {
                    path: path.clone(),
                    message: format!("{} {x}", DoctorCode::ResourceExhausted.as_str()),
                },
                IngestError::Parse(p) => CliError::Parse {
                    path: path.clone(),
                    message: p.to_string(),
                },
            })?;
            if !any {
                return Err(CliError::Other(format!(
                    "{}: manifest lists no jobs",
                    path.display()
                )));
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
    std::fs::write(&tmp, contents).map_err(|source| CliError::Io {
        path: tmp.clone(),
        source,
    })?;
    std::fs::rename(&tmp, path).map_err(|source| CliError::Io {
        path: path.to_owned(),
        source,
    })
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
        svg::render_with_structure,
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
    let args = ParsedArgs::parse(
        argv,
        &[
            "jobs", "max-attempts", "job-timeout", "drain-grace", "route-timeout", "max-nodes",
            "L", "out-dir", "report-json", "input-policy", "inject", "trace-level",
            "max-input-bytes", "max-network-bytes", "blackbox",
        ],
        &["log-json", "strict"],
        (1, usize::MAX),
    )?;
    let message_to_stderr = stdout_claimed(&args)?;
    // `--blackbox <path>` arms the flight recorder: span closes and
    // events ride the fan-out into a bounded ring, and a quarantined
    // job freezes the ring into a post-mortem dump at that path.
    let _trace = if let Some(path) = args.value("blackbox") {
        let (recorder, handle) =
            FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY, tracing::Level::INFO);
        let path = PathBuf::from(path);
        netart_engine::set_quarantine_hook(Some(Box::new(move |record| {
            let dump = handle.snapshot("quarantine", Some(&record.input));
            if !crate::blackbox::write_dump(&path, &dump) {
                handle.note_degradation("flight_dump_failed");
            }
        })));
        install_subscriber_with(&args, vec![Box::new(recorder)])?
    } else {
        install_subscriber(&args)?
    };
    arm_faults(&args)?;
    let policy = input_policy(&args)?;
    let base_budget = budget_from_args(&args)?;
    let ingest_budgets = budgets_from_args(&args)?;
    let strict = args.has("strict");

    let mut lib_degs = Vec::new();
    let lib = match load_library(&args, policy, &ingest_budgets, &mut lib_degs) {
        Ok(lib) => lib,
        Err(e @ CliError::ResourceExhausted { .. }) => {
            return Ok(exhausted_output(&e, strict, message_to_stderr))
        }
        Err(e) => return Err(e),
    };
    let jobs = match collect_jobs(args.positionals(), &ingest_budgets) {
        Ok(jobs) => jobs,
        Err(e @ CliError::ResourceExhausted { .. }) => {
            return Ok(exhausted_output(&e, strict, message_to_stderr))
        }
        Err(e) => return Err(e),
    };
    let inputs: Vec<String> = jobs.keys().cloned().collect();
    let out_dir = PathBuf::from(args.value("out-dir").unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(|source| CliError::Io {
        path: out_dir.clone(),
        source,
    })?;

    let ms_flag = |flag: &str, default: u64| -> Result<u64, CliError> {
        args.parsed(flag, default).map_err(CliError::Args)
    };
    let job_timeout = match args.value("job-timeout") {
        Some(_) => Some(Duration::from_millis(ms_flag("job-timeout", 0)?)),
        None => None,
    };
    let config = EngineConfig {
        workers: args.parsed("jobs", 1u32)?,
        max_attempts: args.parsed("max-attempts", 3u32)?,
        job_timeout,
        drain_grace: Duration::from_millis(ms_flag("drain-grace", 5_000)?),
        ..EngineConfig::default()
    };

    // Bridge the process signal flag onto the engine's drain token.
    SIGNAL_DRAIN.store(false, Ordering::SeqCst);
    let drain = CancelToken::new();
    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let drain = drain.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                if SIGNAL_DRAIN.load(Ordering::SeqCst) {
                    drain.cancel();
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let manifest: BatchManifest = netart_engine::run(
        "netart batch",
        &inputs,
        &config,
        &drain,
        |input, ctx| match jobs.get(input) {
            Some(job) => attempt_job(
                job,
                ctx,
                &lib,
                policy,
                base_budget,
                &ingest_budgets,
                &out_dir,
                strict,
            ),
            None => Err(JobFailure::permanent(format!("unknown job key `{input}`"))),
        },
    );
    done.store(true, Ordering::Release);
    let _ = poller.join();
    if args.value("blackbox").is_some() {
        // Drop the hook's handle so in-process callers (tests) never
        // see a stale recorder from a previous batch.
        netart_engine::set_quarantine_hook(None);
    }

    if let Some(path) = args.value("report-json") {
        write_or_stdout(path, &manifest.to_json_string())?;
    }

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
    for d in &lib_degs {
        message.push_str(&format!(
            "\nwarning: {}",
            d.detail.as_deref().unwrap_or(&d.kind)
        ));
    }
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
    Ok(RunOutput {
        message,
        degraded: manifest.exit_code() != 0,
        strict,
        message_to_stderr,
    })
}
