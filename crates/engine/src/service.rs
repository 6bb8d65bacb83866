//! The admission gate behind `netart serve`.
//!
//! [`run`](crate::run) is batch-shaped: the whole input list is known
//! up front and the call returns when everything finished. A server
//! needs the opposite — requests arrive one at a time, forever, each
//! on a connection thread of its own — so a [`Service`] runs each
//! request's handler on the caller's thread, behind a gate:
//!
//! * **admission control**: at most `workers` handlers run at once.
//!   A caller that finds every slot taken waits, first come, first
//!   served, behind at most `queue_depth` others; past that,
//!   [`Service::run`] returns [`SubmitError::Busy`] at once, and
//!   [`SubmitError::Draining`] once [`Service::drain`] was called —
//!   overload sheds, it never queues unboundedly;
//! * **deadline propagation**: each request carries its own
//!   [`CancelToken`] and optional deadline, counted from arrival; the
//!   watchdog thread trips the token when the deadline passes (queue
//!   wait included), so the handler's `BudgetMeter`s breach
//!   mid-expansion;
//! * **panic isolation**: the handler runs under `catch_unwind`; a
//!   panicking handler comes back as its panic message, and its slot
//!   is freed for the next caller;
//! * **graceful drain**: [`Service::drain`] stops admission and lets
//!   running and already-waiting requests finish; once the drain
//!   grace expires the watchdog cancels whatever is still running, so
//!   drain completes within the grace bound.
//!
//! The gate starts one thread, the watchdog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::{watchdog, CancelToken, JobContext, Watch};

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Handlers that may run at once. Clamped to at least 1.
    pub workers: u32,
    /// Callers that may wait for a slot beyond the ones running; the
    /// bound that turns overload into `429`s. Clamped to at least 1.
    pub queue_depth: usize,
    /// How long running requests may keep running after
    /// [`Service::drain`] before their tokens are cancelled.
    pub drain_grace: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 4,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Why [`Service::run`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Every slot is taken and `queue_depth` callers already wait —
    /// shed the load (`429 Retry-After`).
    Busy,
    /// The service is draining — stop sending (`503`).
    Draining,
}

/// The gate's bookkeeping, under one mutex. Callers that must wait
/// take a place in line from `next`; the one whose place equals
/// `serving` takes the next free slot.
struct Gate {
    /// Watch slots not held by a running handler.
    free: Vec<usize>,
    /// The place in line the next waiting caller gets.
    next: u64,
    /// The place in line whose turn it is.
    serving: u64,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Signalled when a slot frees or a waiter's turn passes.
    turn: Condvar,
    watches: Vec<Mutex<Option<Watch>>>,
    queue_depth: u64,
    draining: AtomicBool,
    stopped: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn watch(&self, slot: usize, watch: Option<Watch>) {
        *self.watches[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = watch;
    }
}

/// An admission gate: runs each request's handler on the caller's
/// thread once one of `workers` slots is free.
pub struct Service {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl Service {
    /// A gate with every slot free, and its watchdog.
    pub fn new(config: &ServiceConfig) -> Self {
        let workers = config.workers.max(1) as usize;
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                free: (0..workers).collect(),
                next: 0,
                serving: 0,
            }),
            turn: Condvar::new(),
            watches: (0..workers).map(|_| Mutex::new(None)).collect(),
            queue_depth: config.queue_depth.max(1) as u64,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        });
        let watchdog = {
            let shared = Arc::clone(&shared);
            let grace = config.drain_grace;
            std::thread::spawn(move || {
                watchdog(&shared.watches, grace, &shared.stopped, || {
                    shared.draining.load(Ordering::Acquire)
                });
            })
        };
        Service {
            shared,
            watchdog: Some(watchdog),
        }
    }

    /// Runs `handler` on this thread once a slot is free, with a
    /// [`JobContext`] whose token it must thread into its budget
    /// meters (`attempt` is always 1 — a server answers now or
    /// degraded, it does not retry while the client waits).
    /// `deadline` bounds the request's total latency, the wait for a
    /// slot included, by tripping that token.
    ///
    /// Returns the handler's value, or its panic message when it
    /// panicked.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when every slot is taken and
    /// `queue_depth` callers already wait, [`SubmitError::Draining`]
    /// once [`Service::drain`] was called. Either comes back at once.
    pub fn run<R>(
        &self,
        deadline: Option<Duration>,
        handler: impl FnOnce(&JobContext) -> R,
    ) -> Result<Result<R, String>, SubmitError> {
        let arrived = Instant::now();
        let slot = self.admit()?;
        let cancel = CancelToken::new();
        self.shared.watch(
            slot,
            Some(Watch {
                cancel: cancel.clone(),
                deadline: deadline.map(|d| arrived + d),
            }),
        );
        let ctx = JobContext {
            cancel,
            attempt: 1,
            last_attempt: true,
            queue_wait: arrived.elapsed(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| handler(&ctx)))
            .map_err(|payload| netart_obs::panic_message(payload.as_ref()));
        self.shared.watch(slot, None);
        self.shared.lock().free.push(slot);
        self.shared.turn.notify_all();
        Ok(outcome)
    }

    /// Takes a slot: at once when one is free and nobody waits,
    /// otherwise after every caller that arrived earlier.
    fn admit(&self) -> Result<usize, SubmitError> {
        let mut gate = self.shared.lock();
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(SubmitError::Draining);
        }
        if gate.next == gate.serving {
            if let Some(slot) = gate.free.pop() {
                return Ok(slot);
            }
        }
        if gate.next - gate.serving >= self.shared.queue_depth {
            return Err(SubmitError::Busy);
        }
        let place = gate.next;
        gate.next += 1;
        loop {
            if place == gate.serving {
                if let Some(slot) = gate.free.pop() {
                    gate.serving += 1;
                    // The caller behind may take another free slot.
                    self.shared.turn.notify_all();
                    return Ok(slot);
                }
            }
            gate = self
                .shared
                .turn
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admission. Running and already-waiting requests keep
    /// going until done or until the drain grace expires and the
    /// watchdog cancels them.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Whether a started drain has finished: admission is closed, no
    /// caller waits and no handler runs.
    pub fn drained(&self) -> bool {
        // One lock for both counts: a waiter taking its slot between
        // two reads would otherwise look like neither.
        let gate = self.shared.lock();
        self.shared.draining.load(Ordering::Acquire)
            && gate.free.len() == self.shared.watches.len()
            && gate.next == gate.serving
    }

    /// Handlers running right now.
    pub fn in_flight(&self) -> usize {
        self.shared.watches.len() - self.shared.lock().free.len()
    }

    /// Callers waiting for a slot right now.
    pub fn queued(&self) -> usize {
        let gate = self.shared.lock();
        (gate.next - gate.serving) as usize
    }
}

impl Drop for Service {
    /// Stops the watchdog. No handler can be running: each holds a
    /// borrow of the service.
    fn drop(&mut self) {
        self.shared.stopped.store(true, Ordering::Release);
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// Polls `done` until it holds; panics after ten seconds.
    fn wait_until(done: impl Fn() -> bool) {
        let since = Instant::now();
        while !done() {
            assert!(
                since.elapsed() < Duration::from_secs(10),
                "condition never held"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A handler that spins until its token is cancelled; `false` if
    /// nothing cancelled it within ten seconds.
    fn until_cancelled(ctx: &JobContext) -> bool {
        let hung_since = Instant::now();
        while !ctx.cancel.is_cancelled() {
            if hung_since.elapsed() > Duration::from_secs(10) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// A handler that reports its start and then blocks until `release`
    /// sends.
    fn blocking(
        started: mpsc::Sender<u32>,
        release: &Mutex<mpsc::Receiver<()>>,
        req: u32,
    ) -> impl FnOnce(&JobContext) -> u32 + '_ {
        move |_ctx| {
            started.send(req).ok();
            release
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv()
                .ok();
            req
        }
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let service = Service::new(&ServiceConfig::default());
        assert_eq!(service.run(None, |_ctx| 21 * 2), Ok(Ok(42)));
        assert_eq!((service.in_flight(), service.queued()), (0, 0));
    }

    #[test]
    fn saturated_queue_sheds_deterministically() {
        // One slot, one place in line. The running request blocks on a
        // channel, the second waits in the only place, the third MUST
        // be shed — no timing involved.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<u32>();
        let release_rx = Mutex::new(release_rx);
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        });
        std::thread::scope(|s| {
            let running =
                s.spawn(|| service.run(None, blocking(started_tx.clone(), &release_rx, 1)));
            assert_eq!(started_rx.recv(), Ok(1), "the first request runs");
            let queued =
                s.spawn(|| service.run(None, blocking(started_tx.clone(), &release_rx, 2)));
            wait_until(|| service.queued() == 1);
            assert_eq!(service.in_flight(), 1);
            assert_eq!(
                service.run(None, |_ctx| 3).unwrap_err(),
                SubmitError::Busy,
                "a full line sheds instead of queueing unboundedly"
            );
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
            assert_eq!(running.join().unwrap(), Ok(Ok(1)));
            assert_eq!(queued.join().unwrap(), Ok(Ok(2)));
        });
    }

    #[test]
    fn waiters_start_first_come_first_served() {
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 8,
            ..ServiceConfig::default()
        });
        // Three rounds: a gate that let woken waiters race for the
        // slot would start them out of order in some round.
        for _ in 0..3 {
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let (started_tx, started_rx) = mpsc::channel::<u32>();
            let release_rx = Mutex::new(release_rx);
            std::thread::scope(|s| {
                s.spawn(|| service.run(None, blocking(started_tx.clone(), &release_rx, 0)));
                assert_eq!(started_rx.recv(), Ok(0));
                // Callers 1 to 8 arrive in order while 0 holds the slot.
                for req in 1..=8 {
                    let (service, started, release) = (&service, started_tx.clone(), &release_rx);
                    s.spawn(move || service.run(None, blocking(started, release, req)));
                    wait_until(|| service.queued() == req as usize);
                }
                for _ in 0..=8 {
                    release_tx.send(()).unwrap();
                }
                let order: Vec<u32> = (1..=8).map(|_| started_rx.recv().unwrap()).collect();
                assert_eq!(
                    order,
                    (1..=8).collect::<Vec<_>>(),
                    "callers start in arrival order"
                );
            });
        }
    }

    #[test]
    fn no_more_than_workers_handlers_run_at_once() {
        let service = Service::new(&ServiceConfig {
            workers: 3,
            queue_depth: 64,
            ..ServiceConfig::default()
        });
        let (running, peak, ran) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    let admitted = service.run(None, |_ctx| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(5));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                    if admitted.is_ok() {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(
            ran.load(Ordering::SeqCst),
            16,
            "a line of 64 admits the whole burst"
        );
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!((service.in_flight(), service.queued()), (0, 0));
    }

    #[test]
    fn a_panicking_request_resolves_and_the_worker_survives() {
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 2,
            ..ServiceConfig::default()
        });
        match service.run(None, |_ctx| -> u32 { panic!("unlucky request") }) {
            Ok(Err(m)) => assert!(m.contains("unlucky"), "{m}"),
            other => panic!("expected a panic, got {other:?}"),
        }
        assert_eq!(service.in_flight(), 0, "the panic freed its slot");
        assert_eq!(
            service.run(None, |_ctx| 7),
            Ok(Ok(7)),
            "the slot is usable again"
        );
    }

    #[test]
    fn deadline_trips_the_request_token() {
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        });
        let cancelled = service.run(Some(Duration::from_millis(30)), until_cancelled);
        assert_eq!(
            cancelled,
            Ok(Ok(true)),
            "the deadline must cancel the request"
        );
    }

    #[test]
    fn queue_wait_counts_against_the_deadline() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<u32>();
        let release_rx = Mutex::new(release_rx);
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        });
        std::thread::scope(|s| {
            s.spawn(|| service.run(None, blocking(started_tx, &release_rx, 1)));
            assert_eq!(started_rx.recv(), Ok(1));
            let late = s.spawn(|| {
                service.run(Some(Duration::from_millis(50)), |ctx| {
                    let started = Instant::now();
                    let cancelled = until_cancelled(ctx);
                    (ctx.queue_wait, started.elapsed(), cancelled)
                })
            });
            wait_until(|| service.queued() == 1);
            std::thread::sleep(Duration::from_millis(120));
            release_tx.send(()).unwrap();
            let (waited, ran, cancelled) = late.join().unwrap().unwrap().unwrap();
            assert!(
                waited >= Duration::from_millis(100),
                "waited only {waited:?}"
            );
            assert!(cancelled, "the deadline never cancelled the request");
            // Cancelled within one watchdog tick of starting (a 10 ms
            // tick, plus scheduling slack), not 50 ms after it.
            assert!(
                ran < Duration::from_millis(45),
                "cancelled {ran:?} after starting"
            );
        });
    }

    #[test]
    fn drain_refuses_new_work_and_resolves_queued_tickets() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<u32>();
        let release_rx = Mutex::new(release_rx);
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 2,
            drain_grace: Duration::from_secs(5),
        });
        std::thread::scope(|s| {
            let running =
                s.spawn(|| service.run(None, blocking(started_tx.clone(), &release_rx, 1)));
            assert_eq!(started_rx.recv(), Ok(1), "in flight");
            let queued =
                s.spawn(|| service.run(None, blocking(started_tx.clone(), &release_rx, 2)));
            wait_until(|| service.queued() == 1);
            service.drain();
            assert_eq!(
                service.run(None, |_ctx| 3).unwrap_err(),
                SubmitError::Draining
            );
            assert!(!service.drained(), "still busy with in-flight work");
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
            assert_eq!(running.join().unwrap(), Ok(Ok(1)));
            assert_eq!(
                queued.join().unwrap(),
                Ok(Ok(2)),
                "a caller already waiting completes during drain"
            );
        });
        assert!(service.drained());
    }

    #[test]
    fn drain_grace_cancels_a_hung_request() {
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_depth: 1,
            drain_grace: Duration::from_millis(30),
        });
        std::thread::scope(|s| {
            let hung = s.spawn(|| service.run(None, until_cancelled));
            // Drain once the handler runs: the grace expiry must
            // cancel the cooperative infinite loop.
            wait_until(|| service.in_flight() == 1);
            service.drain();
            assert_eq!(hung.join().unwrap(), Ok(Ok(true)));
        });
    }
}
