//! Multi-process sharding for `netart serve`: the supervisor side and
//! the worker-side fleet view.
//!
//! `netart serve --shards N` turns the process into a supervisor: it
//! pre-binds the listener, clears `FD_CLOEXEC` on the socket, and
//! re-execs the current binary N times in a hidden `--shard-worker`
//! mode. Every worker inherits the *same* listening file descriptor
//! and runs the ordinary accept loop against it, so the kernel
//! spreads connections across the fleet and a respawned worker picks
//! the socket straight back up — connections that arrive while a
//! shard is down simply wait in the listen backlog.
//!
//! The supervisor answers no HTTP itself (all workers share the one
//! port). It babysits:
//!
//! * **exit detection** — `Child::try_wait` (waitpid) on a 10 ms
//!   tick; any exit is a death fed to the engine's [`ShardTable`]
//!   policy;
//! * **respawn with backoff** — deaths respawn after the engine's
//!   deterministic exponential-backoff schedule; the
//!   `serve.spawn` fault site fires on every spawn attempt so the
//!   chaos suite can exercise spawn failure as just another death;
//! * **crash-loop breaker** — [`SupervisorConfig::crash_limit`]
//!   deaths inside `--crash-window` quarantine the shard instead of
//!   spinning, and readiness degrades via quorum;
//! * **signal fan-out** — SIGTERM/SIGINT drains every worker within
//!   `--drain-grace` and exits 0; SIGUSR1 forwards to every live
//!   worker, each of which freezes its own shard-stamped blackbox;
//! * **fleet broadcasts** — lifecycle state (`quorum`, cumulative
//!   restarts, per-shard phases) is pushed to every worker over its
//!   piped stdin, and each worker folds it into `/readyz`, `/stats`
//!   and `/metrics`. Worker→supervisor readiness travels the other
//!   way as a `shard K ready` stdout line.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use netart_engine::{ShardAction, ShardPhase, ShardTable, SupervisorConfig};

use crate::commands::CliError;
use crate::session::{arm_faults, RunOutput};
use crate::sys::{keep_across_exec, send_signal, SIGKILL, SIGTERM, SIGUSR1};
use crate::ParsedArgs;

/// The supervisor's reap/respawn/broadcast tick.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);

/// Worker-mode identity: which shard this process is, how many exist,
/// and the supervisor-fed fleet view.
pub(crate) struct ShardRuntime {
    /// This worker's shard index (stamps rids, metrics, blackboxes).
    pub index: u32,
    /// Fleet state as last broadcast by the supervisor.
    pub fleet: Arc<FleetView>,
}

/// The worker's copy of fleet-wide lifecycle state, updated by the
/// supervisor's stdin broadcasts. Defaults are optimistic (quorum ok,
/// everyone live) until the first broadcast lands.
pub(crate) struct FleetView {
    quorum_ok: AtomicBool,
    restarts: AtomicU64,
    phases: Mutex<Vec<ShardPhase>>,
    /// Set when the supervisor's pipe closes: the worker is orphaned
    /// and should drain itself rather than squat on the shared socket.
    orphaned: AtomicBool,
}

impl FleetView {
    pub(crate) fn new(count: usize) -> FleetView {
        FleetView {
            quorum_ok: AtomicBool::new(true),
            restarts: AtomicU64::new(0),
            phases: Mutex::new(vec![ShardPhase::Live; count]),
            orphaned: AtomicBool::new(false),
        }
    }

    /// Whether the fleet currently meets its readiness quorum.
    pub(crate) fn quorum_ok(&self) -> bool {
        self.quorum_ok.load(Ordering::Acquire)
    }

    /// Cumulative fleet respawns, as last broadcast.
    pub(crate) fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Acquire)
    }

    /// Per-shard phases, in shard order.
    pub(crate) fn phases(&self) -> Vec<ShardPhase> {
        self.phases
            .lock()
            .map(|p| p.clone())
            .unwrap_or_default()
    }

    /// Shards currently live, per the last broadcast.
    pub(crate) fn live_count(&self) -> usize {
        self.phases()
            .iter()
            .filter(|p| **p == ShardPhase::Live)
            .count()
    }

    /// Whether the supervisor went away (stdin EOF).
    pub(crate) fn orphaned(&self) -> bool {
        self.orphaned.load(Ordering::Acquire)
    }

    /// Applies one `fleet …` broadcast line; returns the increase in
    /// the cumulative restart counter (for the worker's telemetry).
    fn apply(&self, line: &str) -> u64 {
        let Some(rest) = line.strip_prefix("fleet ") else {
            return 0;
        };
        let mut delta = 0;
        for part in rest.split_whitespace() {
            let Some((key, value)) = part.split_once('=') else {
                continue;
            };
            match key {
                "quorum" => self.quorum_ok.store(value == "1", Ordering::Release),
                "restarts" => {
                    if let Ok(total) = value.parse::<u64>() {
                        let prev = self.restarts.swap(total, Ordering::AcqRel);
                        delta = total.saturating_sub(prev);
                    }
                }
                "phases" => {
                    let parsed: Option<Vec<ShardPhase>> =
                        value.split(',').map(ShardPhase::parse).collect();
                    if let (Some(phases), Ok(mut slot)) = (parsed, self.phases.lock()) {
                        *slot = phases;
                    }
                }
                _ => {}
            }
        }
        delta
    }
}

/// Starts the worker-side fleet listener: a thread reading broadcast
/// lines off stdin into `fleet`, calling `on_restarts` with every
/// increase of the cumulative restart counter. Stdin EOF means the
/// supervisor died; the view flips to orphaned and the serve loop
/// drains itself.
pub(crate) fn spawn_fleet_listener(
    fleet: Arc<FleetView>,
    on_restarts: impl Fn(u64) + Send + 'static,
) {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(std::io::stdin().lock());
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    fleet.orphaned.store(true, Ordering::Release);
                    return;
                }
                Ok(_) => {
                    let delta = fleet.apply(line.trim());
                    if delta > 0 {
                        on_restarts(delta);
                    }
                }
            }
        }
    });
}

/// Stamps a per-shard suffix into a file path: `blackbox.json` →
/// `blackbox.s2.json`, extensionless paths get `.s2` appended. Keeps
/// N workers from clobbering each other's file sinks.
fn stamp_shard(path: &str, shard: usize) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.s{shard}.{ext}")
        }
        _ => format!("{path}.s{shard}"),
    }
}

/// Flags the supervisor consumes itself and must not forward.
const SUPERVISOR_FLAGS: &[&str] = &["shards", "quorum", "crash-limit", "crash-window", "addr"];
/// Per-worker file sinks whose paths get a shard stamp.
const STAMPED_FLAGS: &[&str] = &["blackbox", "access-log", "trace-out"];

/// Builds one worker's argv from the supervisor's: supervisor-only
/// flags stripped, file sinks shard-stamped, and the hidden worker
/// identity (`--shard-worker K --shard-count N --shard-fd FD`)
/// appended.
fn worker_argv(argv: &[String], shard: usize, count: usize, fd: i32) -> Vec<String> {
    let mut out = Vec::with_capacity(argv.len() + 6);
    let mut stamped = HashSet::new();
    let mut i = 0;
    while i < argv.len() {
        let arg = &argv[i];
        let name = arg.trim_start_matches('-');
        let is_flag = arg.starts_with('-') && !name.is_empty() && name != arg;
        if is_flag && SUPERVISOR_FLAGS.contains(&name) {
            i += 2;
            continue;
        }
        if is_flag && STAMPED_FLAGS.contains(&name) {
            if let Some(value) = argv.get(i + 1) {
                out.push(format!("--{name}"));
                out.push(stamp_shard(value, shard));
                stamped.insert(name.to_owned());
            }
            i += 2;
            continue;
        }
        out.push(arg.clone());
        i += 1;
    }
    if !stamped.contains("blackbox") {
        // The default dump path must be shard-stamped too, or N
        // workers overwrite one `blackbox.json`.
        out.push("--blackbox".to_owned());
        out.push(stamp_shard("blackbox.json", shard));
    }
    out.push("--shard-worker".to_owned());
    out.push(shard.to_string());
    out.push("--shard-count".to_owned());
    out.push(count.to_string());
    out.push("--shard-fd".to_owned());
    out.push(fd.to_string());
    out
}

/// A worker-ready stdout line (`shard K ready`), observed by the
/// supervisor's per-worker reader thread.
enum Event {
    Ready { shard: usize, generation: u64 },
}

/// One shard's process slot in the supervisor.
struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Spawn generation, so a stale reader thread of a dead worker
    /// cannot mark its respawned successor ready.
    generation: u64,
    respawn_at: Option<Instant>,
}

impl WorkerSlot {
    fn pid(&self) -> Option<i32> {
        self.child
            .as_ref()
            .and_then(|c| i32::try_from(c.id()).ok())
    }
}

/// Spawns (or respawns) the worker for `slot`/`shard`. Fires the
/// `serve.spawn` fault site first — any fired kind, panic included,
/// is a simulated spawn failure. Returns whether a process is now
/// running; a `false` is the caller's cue to record a death.
fn spawn_worker(
    slot: &mut WorkerSlot,
    table: &mut ShardTable,
    shard: usize,
    argv: &[String],
    count: usize,
    fd: i32,
    events: &Sender<Event>,
) -> bool {
    table.record_spawn_attempt(shard);
    if netart_fault::survive(netart_fault::sites::SERVE_SPAWN, || ()).is_none() {
        eprintln!("shard {shard}: injected fault at `serve.spawn`; treating as spawn failure");
        return false;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("shard {shard}: cannot resolve current executable: {e}");
            return false;
        }
    };
    let spawned = Command::new(exe)
        .arg("serve")
        .args(worker_argv(argv, shard, count, fd))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            eprintln!("shard {shard}: spawn failed: {e}");
            return false;
        }
    };
    slot.generation += 1;
    slot.stdin = child.stdin.take();
    if let Some(stdout) = child.stdout.take() {
        let events = events.clone();
        let generation = slot.generation;
        let ready_line = format!("shard {shard} ready");
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line == ready_line {
                    let _ = events.send(Event::Ready { shard, generation });
                } else if !line.is_empty() {
                    // Forward worker chatter (boot warnings, the drain
                    // summary) with a shard prefix.
                    println!("[s{shard}] {line}");
                }
            }
        });
    }
    slot.child = Some(child);
    slot.respawn_at = None;
    true
}

/// Pushes the current fleet state to every worker's stdin. A write to
/// a dead worker's pipe just fails (Rust ignores SIGPIPE); the next
/// broadcast after its respawn catches it up.
fn broadcast(slots: &mut [WorkerSlot], table: &ShardTable, quorum: usize) {
    let phases = table
        .phases()
        .iter()
        .map(|p| p.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let line = format!(
        "fleet quorum={} restarts={} phases={phases}\n",
        u8::from(table.quorum_ok(quorum)),
        table.restarts_total(),
    );
    for slot in slots.iter_mut() {
        if let Some(stdin) = slot.stdin.as_mut() {
            let _ = stdin.write_all(line.as_bytes());
            let _ = stdin.flush();
        }
    }
}

/// Applies one death verdict to a slot (schedule the respawn or
/// quarantine for good).
fn apply_death(slot: &mut WorkerSlot, shard: usize, action: ShardAction) {
    match action {
        ShardAction::Respawn { delay } => {
            eprintln!("shard {shard}: respawning in {delay:?}");
            slot.respawn_at = Some(Instant::now() + delay);
        }
        ShardAction::Quarantine => {
            eprintln!("shard {shard}: crash-looping; quarantined (readiness degrades)");
            slot.respawn_at = None;
        }
    }
}

/// `netart serve --shards N [--quorum K] [--crash-limit M]
/// [--crash-window ms] …`: the supervisor process. Binds the
/// listener, spawns N workers inheriting the socket, and supervises
/// until SIGTERM/SIGINT drains the fleet.
pub(crate) fn run_supervisor(
    argv: &[String],
    args: &ParsedArgs,
    shards: usize,
) -> Result<RunOutput, CliError> {
    // Each worker's stdout reaches the supervisor's line by line behind
    // an `[s{k}]` prefix, so no sink can stream to it.
    if let Some(flag) = STAMPED_FLAGS.iter().find(|&&f| args.value(f) == Some("-")) {
        return Err(CliError::Other(format!(
            "--{flag} - cannot stream under --shards: each worker's stdout is forwarded \
             line by line behind an `[sK]` prefix; give a file path"
        )));
    }
    // Arm before the first spawn attempt: `serve.spawn` fires here in
    // the supervisor; every other site rides the forwarded `--inject`
    // (and the inherited NETART_INJECT) into the workers.
    arm_faults(args)?;
    let quorum = args.parsed("quorum", shards)?.clamp(1, shards);
    let defaults = SupervisorConfig::default();
    let config = SupervisorConfig {
        crash_limit: args.parsed("crash-limit", defaults.crash_limit)?.max(1),
        crash_window: Duration::from_millis(
            args.parsed("crash-window", defaults.crash_window.as_millis() as u64)?,
        ),
    };
    let drain_grace = Duration::from_millis(args.parsed("drain-grace", 5_000u64)?);

    let addr = args.value("addr").unwrap_or("127.0.0.1:4817");
    let listener = TcpListener::bind(addr).map_err(CliError::io(addr))?;
    let local = listener.local_addr().map_err(CliError::io(addr))?;
    let fd = listener.as_raw_fd();
    // Workers must inherit the listening socket across exec.
    keep_across_exec(fd).map_err(CliError::io(addr))?;

    let mut table = ShardTable::new(shards, config);
    let (events_tx, events_rx): (Sender<Event>, Receiver<Event>) = std::sync::mpsc::channel();
    let mut slots: Vec<WorkerSlot> = (0..shards)
        .map(|_| WorkerSlot {
            child: None,
            stdin: None,
            generation: 0,
            respawn_at: None,
        })
        .collect();
    for (shard, slot) in slots.iter_mut().enumerate() {
        if !spawn_worker(slot, &mut table, shard, argv, shards, fd, &events_tx) {
            let action = table.record_death(shard, Instant::now());
            apply_death(slot, shard, action);
        }
    }

    // The ServeProc/load-balancer contract: first stdout line names
    // the resolved address. Printed before the workers finish booting
    // — early connections wait in the listen backlog, nothing is
    // refused or dropped.
    println!("serving on http://{local}");
    let _ = std::io::stdout().flush();

    crate::batch::reset_signal_drain();
    loop {
        if crate::batch::take_signal_flight() {
            // SIGUSR1 fan-out: every live worker freezes its own
            // shard-stamped blackbox.
            for slot in &slots {
                if let Some(pid) = slot.pid() {
                    send_signal(pid, SIGUSR1);
                }
            }
        }
        if crate::batch::signal_drain_requested() {
            break;
        }
        let mut changed = false;
        for (shard, slot) in slots.iter_mut().enumerate() {
            let exited = slot
                .child
                .as_mut()
                .and_then(|child| child.try_wait().ok().flatten());
            if let Some(status) = exited {
                eprintln!("shard {shard}: worker exited ({status})");
                slot.child = None;
                slot.stdin = None;
                let action = table.record_death(shard, Instant::now());
                apply_death(slot, shard, action);
                changed = true;
            }
        }
        while let Ok(Event::Ready { shard, generation }) = events_rx.try_recv() {
            if slots[shard].generation == generation && slots[shard].child.is_some() {
                table.record_ready(shard);
                changed = true;
            }
        }
        for (shard, slot) in slots.iter_mut().enumerate() {
            let due = slot.respawn_at.is_some_and(|at| Instant::now() >= at);
            if due && slot.child.is_none() {
                slot.respawn_at = None;
                if !spawn_worker(slot, &mut table, shard, argv, shards, fd, &events_tx) {
                    let action = table.record_death(shard, Instant::now());
                    apply_death(slot, shard, action);
                }
                changed = true;
            }
        }
        if changed {
            broadcast(&mut slots, &table, quorum);
        }
        std::thread::sleep(SUPERVISE_TICK);
    }

    // Drain: SIGTERM fan-out, then reap everyone within the grace
    // (plus the workers' own settle margin); stragglers get SIGKILL.
    for slot in &slots {
        if let Some(pid) = slot.pid() {
            send_signal(pid, SIGTERM);
        }
    }
    let deadline = Instant::now() + drain_grace + Duration::from_secs(4);
    loop {
        for slot in slots.iter_mut() {
            if let Some(child) = slot.child.as_mut() {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    slot.child = None;
                }
            }
        }
        if slots.iter().all(|s| s.child.is_none()) {
            break;
        }
        if Instant::now() >= deadline {
            for slot in slots.iter_mut() {
                if let Some(mut child) = slot.child.take() {
                    send_signal(child.id() as i32, SIGKILL);
                    let _ = child.wait();
                }
            }
            break;
        }
        std::thread::sleep(SUPERVISE_TICK);
    }

    Ok(RunOutput::new(
        format!(
            "drained cleanly: {} shard(s) supervised, {} restart(s), {} quarantined",
            shards,
            table.restarts_total(),
            table.quarantined(),
        ),
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stamping_preserves_extensions() {
        assert_eq!(stamp_shard("blackbox.json", 2), "blackbox.s2.json");
        assert_eq!(stamp_shard("/tmp/x/access.jsonl", 0), "/tmp/x/access.s0.jsonl");
        assert_eq!(stamp_shard("dump", 1), "dump.s1");
        assert_eq!(stamp_shard("/tmp/v1.2/trace", 3), "/tmp/v1.2/trace.s3");
    }

    #[test]
    fn worker_argv_strips_supervisor_flags_and_stamps_sinks() {
        let argv: Vec<String> = [
            "--addr", "127.0.0.1:0", "-L", "libdir", "--shards", "4", "--quorum", "3",
            "--crash-limit", "3", "--crash-window", "60000", "--workers", "2",
            "--access-log", "/tmp/a.jsonl", "--blackbox", "/tmp/bb.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let worker = worker_argv(&argv, 1, 4, 7);
        let worker: Vec<&str> = worker.iter().map(String::as_str).collect();
        assert_eq!(
            worker,
            [
                "-L", "libdir", "--workers", "2",
                "--access-log", "/tmp/a.s1.jsonl", "--blackbox", "/tmp/bb.s1.json",
                "--shard-worker", "1", "--shard-count", "4", "--shard-fd", "7",
            ]
        );
    }

    #[test]
    fn worker_argv_stamps_the_default_blackbox() {
        let argv: Vec<String> = ["-L", "libdir"].iter().map(|s| s.to_string()).collect();
        let worker = worker_argv(&argv, 0, 2, 5);
        let pos = worker.iter().position(|a| a == "--blackbox").expect("default blackbox");
        assert_eq!(worker[pos + 1], "blackbox.s0.json");
    }

    #[test]
    fn fleet_view_applies_broadcasts_and_reports_deltas() {
        let view = FleetView::new(3);
        assert!(view.quorum_ok(), "optimistic before the first broadcast");
        assert_eq!(view.apply("fleet quorum=0 restarts=2 phases=live,down,quarantined"), 2);
        assert!(!view.quorum_ok());
        assert_eq!(view.restarts(), 2);
        assert_eq!(view.live_count(), 1);
        assert_eq!(
            view.phases(),
            vec![ShardPhase::Live, ShardPhase::Down, ShardPhase::Quarantined]
        );
        // Replay of the same total is a zero delta; garbage is ignored.
        assert_eq!(view.apply("fleet quorum=1 restarts=2 phases=live,live,quarantined"), 0);
        assert!(view.quorum_ok());
        assert_eq!(view.apply("not a broadcast"), 0);
        assert_eq!(view.live_count(), 2);
    }
}
