//! `netart-engine` — the resilient batch execution layer.
//!
//! The per-run robustness work (budgets, salvage, the doctor, fault
//! injection) hardens *one* pipeline invocation; this crate makes a
//! *fleet* of invocations survivable. [`run`] takes a set of jobs
//! through a caller-supplied pipeline function on scoped std-thread
//! workers, with:
//!
//! * a shared cursor from which each worker claims the next input, so
//!   nothing waits in memory beyond the jobs running;
//! * per-job panic isolation — a panicking job is an attempt failure,
//!   never a dead worker;
//! * a wall-clock watchdog per attempt that trips a cooperative
//!   [`CancelToken`] (threaded by the caller into
//!   `route::BudgetMeter`), so a hung net cannot wedge a worker;
//! * retry with exponential backoff and deterministic jitter for
//!   *transient* failures, and a circuit breaker that quarantines
//!   inputs which fail every retry;
//! * graceful drain: when the drain signal holds (SIGINT/SIGTERM in
//!   the CLI), in-flight jobs get a grace period to finish before
//!   their tokens are cancelled, and unclaimed inputs are recorded as
//!   `skipped` — the manifest is always complete.
//!
//! The outcome is a deterministic [`BatchManifest`]: records sorted
//! by input path, every wall-clock quantity strippable via
//! [`BatchManifest::normalized`], so `--jobs N` and `--jobs 1` runs
//! compare byte-for-byte.
//!
//! `netart serve` uses the same watchdog behind a [`Service`], an
//! admission gate that runs each request on its caller's thread.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod service;
mod single_flight;
mod supervisor;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netart_obs::{BatchManifest, JobRecord, JobStatus, QuarantineReport};
pub use netart_route::CancelToken;
use tracing::{debug, warn};

pub use cache::{ByteCache, CacheStats};
pub use service::{Service, ServiceConfig, SubmitError};
pub use single_flight::SingleFlight;
pub use supervisor::{ShardAction, ShardPhase, ShardTable, SupervisorConfig};

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (`--jobs`). Clamped to at least 1.
    pub workers: u32,
    /// Attempts per job before the circuit breaker quarantines it
    /// (1 = no retries). Clamped to at least 1.
    pub max_attempts: u32,
    /// Wall-clock allowance per attempt before the watchdog cancels
    /// it; `None` for no watchdog.
    pub job_timeout: Option<Duration>,
    /// How long in-flight attempts may keep running after drain is
    /// requested before their tokens are cancelled.
    pub drain_grace: Duration,
}

/// What one attempt sees of its execution context.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// This attempt's cancellation token. The job function should
    /// thread it into `RouteConfig::with_cancel` (and may poll it at
    /// its own checkpoints); the watchdog trips it on timeout and on
    /// drain-grace expiry.
    pub cancel: CancelToken,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Whether this is the final attempt — the job function may
    /// accept a degraded result here that it would retry otherwise.
    pub last_attempt: bool,
    /// How long the request waited at the [`Service`] gate for a
    /// slot. Zero in the batch pool, which starts attempts
    /// immediately.
    pub queue_wait: Duration,
}

/// A successful attempt.
#[derive(Debug, Clone, Default)]
pub struct JobSuccess {
    /// The attempt's run report, if the pipeline produced one.
    pub report: Option<netart_obs::RunReport>,
    /// Degradations the attempt recorded; `0` means a clean `ok` job.
    pub degradations: usize,
}

/// A failed attempt.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Human-readable cause (becomes the record's `error`).
    pub message: String,
    /// Whether retrying could plausibly succeed (injected faults,
    /// budget exhaustion, timeouts). Permanent failures — parse
    /// errors, I/O — fail the job on the spot.
    pub transient: bool,
}

impl JobFailure {
    /// A transient (retryable) failure.
    pub fn transient(message: impl Into<String>) -> Self {
        JobFailure {
            message: message.into(),
            transient: true,
        }
    }

    /// A permanent failure: no retry will be attempted.
    pub fn permanent(message: impl Into<String>) -> Self {
        JobFailure {
            message: message.into(),
            transient: false,
        }
    }
}

/// One watchdog slot: the in-flight attempt of one worker.
struct Watch {
    cancel: CancelToken,
    deadline: Option<Instant>,
}

/// First retry delay; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Upper bound on any retry delay (before jitter).
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// A shard's respawn delay after the first death in its crash window;
/// doubles per further death.
const SHARD_BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Upper bound on any shard respawn delay (before jitter).
const SHARD_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// How often the watchdog scans in-flight attempts.
const WATCHDOG_TICK: Duration = Duration::from_millis(10);

/// The watchdog loop of the batch pool and the resident [`Service`]:
/// until `stop` is set, cancels every attempt in `slots` past its
/// deadline, and every in-flight attempt once `grace` has passed since
/// `draining` first held.
fn watchdog(
    slots: &[Mutex<Option<Watch>>],
    grace: Duration,
    stop: &AtomicBool,
    draining: impl Fn() -> bool,
) {
    let mut drain_deadline: Option<Instant> = None;
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if drain_deadline.is_none() && draining() {
            drain_deadline = Some(now + grace);
        }
        let drain_expired = drain_deadline.is_some_and(|d| now >= d);
        for slot in slots {
            let guard = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(watch) = guard.as_ref() {
                if drain_expired || watch.deadline.is_some_and(|d| now >= d) {
                    watch.cancel.cancel();
                }
            }
        }
        std::thread::sleep(WATCHDOG_TICK);
    }
}

/// FNV-1a, the deterministic hash behind the backoff jitter (two runs
/// of the same batch back off identically) and `netart serve`'s
/// content-addressed artifact keys.
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty hash (the FNV-1a 64-bit offset basis).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The backoff schedule itself, parameterised by its knobs so other
/// supervising layers (the serve shard supervisor's respawn loop)
/// share the exact engine behaviour: exponential in the 1-based
/// `attempt` with a +0‥25% jitter derived deterministically from
/// `seed`, capped at `cap` (before jitter).
pub fn backoff_schedule(base: Duration, cap: Duration, seed: &str, attempt: u32) -> Duration {
    let grown = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let grown = grown.min(cap);
    let jitter_span = grown.as_nanos() as u64 / 4;
    if jitter_span == 0 {
        return grown;
    }
    let mut hash = Fnv1a::new();
    hash.feed(seed.as_bytes());
    hash.feed(&attempt.to_le_bytes());
    grown + Duration::from_nanos(hash.finish() % jitter_span)
}

/// The delay before retry number `attempt + 1`: exponential in the
/// attempt with a ±25% deterministic jitter, capped.
fn backoff_delay(input: &str, attempt: u32) -> Duration {
    backoff_schedule(BACKOFF_BASE, BACKOFF_CAP, input, attempt)
}

/// Sleeps for `total`, waking early when `drain` holds.
fn interruptible_sleep(total: Duration, drain: &impl Fn() -> bool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if drain() {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(WATCHDOG_TICK));
    }
}

/// Runs every `input` through `job` and aggregates the outcomes.
///
/// `job` is called as `job(input, &ctx)` and must honour
/// `ctx.cancel`; it may be called multiple times for the same input
/// (retries). A panicking call counts as a transient attempt failure.
/// `drain` is the external stop signal, polled by the workers and the
/// watchdog (the CLI passes the reader of its SIGINT/SIGTERM flag);
/// `tool` names the manifest producer. `on_quarantine` sees each
/// quarantined [`JobRecord`], fully built, on the worker thread that
/// exhausted its retries, before it lands in the manifest — keep it
/// cheap and never panic inside it.
///
/// Always returns a complete manifest: one record per input, sorted
/// by input path, whatever happened.
pub fn run<F>(
    tool: &str,
    inputs: &[String],
    config: &EngineConfig,
    drain: impl Fn() -> bool + Sync,
    on_quarantine: impl Fn(&JobRecord) + Sync,
    job: F,
) -> BatchManifest
where
    F: Fn(&str, &JobContext) -> Result<JobSuccess, JobFailure> + Send + Sync,
{
    let started = Instant::now();
    let workers = (config.workers.max(1) as usize).min(inputs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let records: Mutex<Vec<Option<JobRecord>>> = Mutex::new(vec![None; inputs.len()]);
    let slots: Vec<Mutex<Option<Watch>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| watchdog(&slots, config.drain_grace, &done, &drain));

        let worker_handles: Vec<_> = slots
            .iter()
            .map(|slot| {
                let (cursor, records, drain, job) = (&cursor, &records, &drain, &job);
                let on_quarantine = &on_quarantine;
                s.spawn(move || {
                    // Each worker claims the next input until none is
                    // left or drain holds.
                    while !drain() {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(idx) else { break };
                        let record = run_job(input, config, drain, slot, job);
                        if record.status == JobStatus::Quarantined {
                            on_quarantine(&record);
                        }
                        records.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[idx] =
                            Some(record);
                    }
                })
            })
            .collect();
        for handle in worker_handles {
            let _ = handle.join();
        }
        done.store(true, Ordering::Release);
    });

    // An input without a record was never claimed (drain) or lost
    // with its worker (a panic outside the job's catch_unwind): it is
    // skipped, so the manifest stays complete.
    let records = records.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let records = records
        .into_iter()
        .zip(inputs)
        .map(|(record, input)| record.unwrap_or_else(|| skipped_record(input)))
        .collect();

    // Aggregation fault point: the manifest build must survive an
    // injected fault just like a job must.
    if netart_fault::survive(netart_fault::sites::ENGINE_MANIFEST, || ()).is_none() {
        warn!("injected fault at manifest aggregation survived");
    }

    let mut manifest = BatchManifest::new(tool, workers as u32, drain(), records);
    manifest.summary.duration_ns = started.elapsed().as_nanos() as u64;
    manifest
}

fn skipped_record(input: &str) -> JobRecord {
    JobRecord {
        input: input.to_owned(),
        status: JobStatus::Skipped,
        attempts: 0,
        duration_ns: 0,
        degradations: 0,
        error: None,
        quarantine: None,
        report: None,
    }
}

/// Runs one job to a terminal status: attempts with watchdog
/// registration, panic isolation, retry classification, backoff, and
/// the quarantine circuit breaker.
fn run_job<F>(
    input: &str,
    config: &EngineConfig,
    drain: &impl Fn() -> bool,
    slot: &Mutex<Option<Watch>>,
    job: &F,
) -> JobRecord
where
    F: Fn(&str, &JobContext) -> Result<JobSuccess, JobFailure> + Send + Sync,
{
    let started = Instant::now();
    let max_attempts = config.max_attempts.max(1);
    let mut last_error = String::new();
    let mut attempts = 0;

    for attempt in 1..=max_attempts {
        attempts = attempt;
        let cancel = CancelToken::new();
        let ctx = JobContext {
            cancel: cancel.clone(),
            attempt,
            last_attempt: attempt == max_attempts,
            queue_wait: Duration::ZERO,
        };
        // If drain was requested with no grace left, don't start.
        if drain() && config.drain_grace.is_zero() {
            return finish(
                input,
                JobStatus::Failed,
                attempt - 1,
                started,
                0,
                Some("cancelled before attempt (drain)".to_owned()),
                None,
            );
        }
        *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Watch {
            cancel: cancel.clone(),
            deadline: config.job_timeout.map(|t| Instant::now() + t),
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Worker-isolation fault point: fires per attempt, before
            // the pipeline.
            if let Some(kind) = netart_fault::fire(netart_fault::sites::ENGINE_JOB) {
                return Err(JobFailure::transient(format!(
                    "injected `{kind}` fault at engine.job"
                )));
            }
            job(input, &ctx)
        }));
        *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;

        let failure = match outcome {
            Ok(Ok(success)) => {
                let status = if success.degradations == 0 {
                    JobStatus::Ok
                } else {
                    JobStatus::Degraded
                };
                return finish(
                    input,
                    status,
                    attempt,
                    started,
                    success.degradations,
                    None,
                    success.report,
                );
            }
            Ok(Err(failure)) => failure,
            Err(payload) => JobFailure::transient(netart_obs::panic_message(payload.as_ref())),
        };
        last_error = failure.message.clone();
        debug!(
            "job attempt failed",
            input = input,
            attempt = attempt as u64,
            transient = failure.transient,
            error = failure.message.as_str(),
        );

        // Drain-cancelled attempts are not retried: the batch is
        // shutting down, so the job resolves as failed (cancelled).
        if drain() {
            return finish(
                input,
                JobStatus::Failed,
                attempt,
                started,
                0,
                Some(format!("cancelled during drain: {last_error}")),
                None,
            );
        }
        if !failure.transient {
            return finish(input, JobStatus::Failed, attempt, started, 0, Some(last_error), None);
        }
        if attempt < max_attempts {
            interruptible_sleep(backoff_delay(input, attempt), drain);
            if drain() {
                return finish(
                    input,
                    JobStatus::Failed,
                    attempt,
                    started,
                    0,
                    Some(format!("cancelled before retry (drain): {last_error}")),
                    None,
                );
            }
        }
    }

    // Circuit breaker: every retry burned on transient symptoms.
    warn!(
        "job quarantined",
        input = input,
        attempts = attempts as u64,
        error = last_error.as_str(),
    );
    let mut record = finish(
        input,
        JobStatus::Quarantined,
        attempts,
        started,
        0,
        Some(last_error.clone()),
        None,
    );
    record.quarantine = Some(QuarantineReport {
        after_attempts: attempts,
        symptom: last_error,
    });
    record
}

#[allow(clippy::too_many_arguments)]
fn finish(
    input: &str,
    status: JobStatus,
    attempts: u32,
    started: Instant,
    degradations: usize,
    error: Option<String>,
    report: Option<netart_obs::RunReport>,
) -> JobRecord {
    JobRecord {
        input: input.to_owned(),
        status,
        attempts,
        duration_ns: started.elapsed().as_nanos() as u64,
        degradations,
        error,
        quarantine: None,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn pool(workers: u32) -> EngineConfig {
        EngineConfig {
            workers,
            max_attempts: 3,
            job_timeout: None,
            drain_grace: Duration::from_secs(5),
        }
    }

    fn inputs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn clean_jobs_all_ok() {
        let manifest = run(
            "test",
            &inputs(&["c", "a", "b"]),
            &pool(2),
            || false,
            |_| {},
            |_, _| Ok(JobSuccess::default()),
        );
        assert_eq!(manifest.summary.ok, 3);
        assert_eq!(manifest.exit_code(), 0);
        let order: Vec<&str> = manifest.jobs.iter().map(|j| j.input.as_str()).collect();
        assert_eq!(order, ["a", "b", "c"], "records sort by input path");
        assert!(manifest.jobs.iter().all(|j| j.attempts == 1));
        assert!(!manifest.drained);
    }

    #[test]
    fn degraded_jobs_counted_and_exit_two() {
        let manifest = run(
            "test",
            &inputs(&["a"]),
            &pool(1),
            || false,
            |_| {},
            |_, _| {
                Ok(JobSuccess {
                    report: None,
                    degradations: 2,
                })
            },
        );
        assert_eq!(manifest.summary.degraded, 1);
        assert_eq!(manifest.jobs[0].status, JobStatus::Degraded);
        assert_eq!(manifest.jobs[0].degradations, 2);
        assert_eq!(manifest.exit_code(), 2);
    }

    #[test]
    fn transient_failure_retries_then_succeeds() {
        let calls = AtomicU32::new(0);
        let manifest = run(
            "test",
            &inputs(&["flaky"]),
            &pool(1),
            || false,
            |_| {},
            |_, ctx| {
                calls.fetch_add(1, Ordering::Relaxed);
                if ctx.attempt < 2 {
                    Err(JobFailure::transient("transient hiccup"))
                } else {
                    Ok(JobSuccess::default())
                }
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(manifest.jobs[0].status, JobStatus::Ok);
        assert_eq!(manifest.jobs[0].attempts, 2);
    }

    #[test]
    fn exhausted_transient_retries_quarantine() {
        let manifest = run(
            "test",
            &inputs(&["poison", "fine"]),
            &pool(2),
            || false,
            |_| {},
            |input, _| {
                if input == "poison" {
                    Err(JobFailure::transient("always broken"))
                } else {
                    Ok(JobSuccess::default())
                }
            },
        );
        let poison = manifest.jobs.iter().find(|j| j.input == "poison").unwrap();
        assert_eq!(poison.status, JobStatus::Quarantined);
        assert_eq!(poison.attempts, 3);
        assert_eq!(poison.error.as_deref(), Some("always broken"));
        let quarantine = poison.quarantine.as_ref().expect("breaker context recorded");
        assert_eq!(quarantine.after_attempts, 3);
        assert_eq!(quarantine.symptom, "always broken");
        let fine = manifest.jobs.iter().find(|j| j.input == "fine").unwrap();
        assert_eq!(fine.status, JobStatus::Ok, "poison does not starve the batch");
        assert_eq!(manifest.exit_code(), 2);
    }

    #[test]
    fn quarantine_hook_fires_once_per_quarantined_job() {
        let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let manifest = run(
            "test",
            &inputs(&["hook_poison", "hook_fine"]),
            &pool(2),
            || false,
            |record| seen.lock().unwrap().push(record.input.clone()),
            |input, _| {
                if input == "hook_poison" {
                    Err(JobFailure::transient("always broken"))
                } else {
                    Ok(JobSuccess::default())
                }
            },
        );
        let calls = seen.lock().unwrap();
        assert_eq!(
            calls.iter().filter(|i| *i == "hook_poison").count(),
            1,
            "hook sees the quarantined input exactly once: {calls:?}"
        );
        assert!(!calls.iter().any(|i| i == "hook_fine"), "clean jobs never hook");
        let poison = manifest.jobs.iter().find(|j| j.input == "hook_poison").unwrap();
        assert!(poison.quarantine.is_some(), "record was complete when the hook ran");
    }

    #[test]
    fn permanent_failure_fails_without_retry() {
        let calls = AtomicU32::new(0);
        let manifest = run(
            "test",
            &inputs(&["broken"]),
            &pool(1),
            || false,
            |_| {},
            |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(JobFailure::permanent("parse error"))
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1, "permanent failures do not retry");
        assert_eq!(manifest.jobs[0].status, JobStatus::Failed);
        assert_eq!(manifest.jobs[0].attempts, 1);
    }

    #[test]
    fn panicking_job_is_contained_and_quarantined() {
        let manifest = run(
            "test",
            &inputs(&["bomb", "calm"]),
            &pool(2),
            || false,
            |_| {},
            |input, _| {
                if input == "bomb" {
                    panic!("boom at {input}");
                }
                Ok(JobSuccess::default())
            },
        );
        let bomb = manifest.jobs.iter().find(|j| j.input == "bomb").unwrap();
        assert_eq!(bomb.status, JobStatus::Quarantined, "panics count as transient");
        assert_eq!(bomb.attempts, 3);
        assert!(bomb.error.as_deref().unwrap().contains("boom"));
        let calm = manifest.jobs.iter().find(|j| j.input == "calm").unwrap();
        assert_eq!(calm.status, JobStatus::Ok, "the pool survives the panic");
    }

    #[test]
    fn pre_drained_batch_skips_everything() {
        let manifest = run(
            "test",
            &inputs(&["a", "b"]),
            &pool(2),
            || true,
            |_| {},
            |_, _| Ok(JobSuccess::default()),
        );
        assert_eq!(manifest.summary.skipped, 2);
        assert!(manifest.drained);
        assert!(manifest.jobs.iter().all(|j| j.attempts == 0));
    }

    #[test]
    fn watchdog_cancels_a_hung_attempt() {
        let config = EngineConfig {
            max_attempts: 1,
            job_timeout: Some(Duration::from_millis(30)),
            ..pool(1)
        };
        let manifest = run(
            "test",
            &inputs(&["hang"]),
            &config,
            || false,
            |_| {},
            |_, ctx| {
                // A cooperative busy loop, like a router polling its
                // meter: it only ends when the watchdog trips us.
                let hung_since = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    assert!(
                        hung_since.elapsed() < Duration::from_secs(10),
                        "watchdog never fired"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(JobFailure::transient("cancelled by watchdog"))
            },
        );
        assert_eq!(manifest.jobs[0].status, JobStatus::Quarantined);
    }

    #[test]
    fn drain_cancels_in_flight_after_grace_and_skips_queued() {
        let drain = CancelToken::new();
        let config = EngineConfig {
            drain_grace: Duration::from_millis(20),
            ..pool(1)
        };
        let drain_for_job = drain.clone();
        let manifest = run(
            "test",
            &inputs(&["running", "queued-1", "queued-2"]),
            &config,
            || drain.is_cancelled(),
            |_| {},
            move |input, ctx| {
                if input == "running" {
                    // First job trips the drain itself, then hangs
                    // until the grace expires and cancels it.
                    drain_for_job.cancel();
                    while !ctx.cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return Err(JobFailure::transient("cancelled mid-flight"));
                }
                Ok(JobSuccess::default())
            },
        );
        assert!(manifest.drained);
        let running = manifest.jobs.iter().find(|j| j.input == "running").unwrap();
        assert_eq!(running.status, JobStatus::Failed, "in-flight resolves as cancelled");
        assert!(running.error.as_deref().unwrap().contains("cancelled"));
        assert_eq!(running.attempts, 1, "no retries during drain");
        for queued in manifest.jobs.iter().filter(|j| j.input.starts_with("queued")) {
            assert_eq!(queued.status, JobStatus::Skipped);
        }
    }

    /// Asserts `manifest` holds exactly one record per input.
    fn assert_one_record_each(manifest: &BatchManifest, inputs: &[String]) {
        let mut recorded: Vec<&str> = manifest.jobs.iter().map(|j| j.input.as_str()).collect();
        recorded.sort_unstable();
        let mut expected: Vec<&str> = inputs.iter().map(String::as_str).collect();
        expected.sort_unstable();
        assert_eq!(recorded, expected);
    }

    #[test]
    fn spare_workers_give_one_record_per_input() {
        let inputs = inputs(&["a", "b", "c"]);
        let manifest = run("test", &inputs, &pool(8), || false, |_| {}, |_, _| {
            Ok(JobSuccess::default())
        });
        assert_one_record_each(&manifest, &inputs);
        assert_eq!(manifest.summary.ok, 3);
        assert_eq!(manifest.jobs_in_flight, 3, "no more workers than inputs");
    }

    #[test]
    fn a_drain_mid_batch_gives_one_record_per_input() {
        let inputs: Vec<String> = (0..40).map(|i| format!("job{i:02}")).collect();
        let drain = CancelToken::new();
        let calls = AtomicU32::new(0);
        let manifest = run("test", &inputs, &pool(2), || drain.is_cancelled(), |_| {}, |_, _| {
            if calls.fetch_add(1, Ordering::SeqCst) == 9 {
                drain.cancel();
            }
            Ok(JobSuccess::default())
        });
        assert_one_record_each(&manifest, &inputs);
        assert!(manifest.drained);
        let s = &manifest.summary;
        assert_eq!(s.ok as u32, calls.load(Ordering::SeqCst), "every started job is recorded");
        assert_eq!(s.ok + s.skipped, 40, "{s:?}");
        assert!(s.skipped >= 29, "no job starts after the drain: {s:?}");
    }

    #[test]
    fn parallel_and_serial_manifests_normalise_identically() {
        let job = |input: &str, _ctx: &JobContext| {
            if input.ends_with("bad") {
                Err(JobFailure::permanent("expected failure"))
            } else {
                Ok(JobSuccess::default())
            }
        };
        let inputs = inputs(&["w", "x-bad", "y", "z"]);
        let serial = run("test", &inputs, &pool(1), || false, |_| {}, job);
        let parallel = run("test", &inputs, &pool(4), || false, |_| {}, job);
        // Worker count is a run parameter, not an outcome; align it
        // like the CLI determinism test does.
        let mut parallel = parallel.normalized();
        parallel.jobs_in_flight = serial.jobs_in_flight;
        assert_eq!(serial.normalized().to_json_string(), parallel.to_json_string());
    }

    #[test]
    fn backoff_jitter_is_fnv1a_of_seed_and_attempt() {
        // 400 ms grown, plus FNV-1a("job.net" ++ 3u32 LE) mod 100 ms.
        let (base, cap) = (Duration::from_millis(100), Duration::from_secs(10));
        let delay = backoff_schedule(base, cap, "job.net", 3);
        assert_eq!(delay, Duration::from_nanos(490_774_138));
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(backoff_delay("same", 2), backoff_delay("same", 2));
        assert_ne!(
            backoff_delay("same", 1),
            backoff_delay("other", 1),
            "jitter varies by input"
        );
        let big = backoff_delay("x", 30);
        assert!(big <= BACKOFF_CAP + BACKOFF_CAP / 4);
    }
}
