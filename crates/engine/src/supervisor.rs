//! Process-supervision policy for a fleet of shard workers.
//!
//! `netart serve --shards N` keeps N single-shard worker processes
//! alive behind one listening socket. The *mechanics* of that (fork,
//! `waitpid`, signal fan-out) are the CLI's business; the *policy* —
//! when to respawn, how long to back off, when a shard is crash
//! looping and must be quarantined instead of respun — lives here so
//! it can be unit tested without ever spawning a process.
//!
//! [`ShardTable`] is a pure state machine driven by three events:
//! `record_spawn_attempt` (the supervisor is about to exec a worker),
//! `record_ready` (the worker reported itself serving) and
//! `record_death` (the worker process exited, for any reason).
//! Deaths feed a sliding [`SupervisorConfig::crash_window`]; each
//! death's respawn delay is the engine's deterministic
//! [`backoff_schedule`](crate::backoff_schedule) with the death count
//! currently in the window as the attempt number, so a shard that
//! keeps dying backs off exponentially and a shard whose crashes aged
//! out of the window starts over from the base delay. Reaching
//! [`SupervisorConfig::crash_limit`] deaths inside the window trips
//! the breaker: the shard is [`ShardPhase::Quarantined`], never
//! respawned, and the fleet's quorum accounting degrades readiness
//! instead of burning CPU on a spawn loop.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::{backoff_schedule, SHARD_BACKOFF_BASE, SHARD_BACKOFF_CAP};

/// Tuning knobs for the shard supervision policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Deaths within [`SupervisorConfig::crash_window`] that trip the
    /// crash-loop breaker. Clamped to at least 1.
    pub crash_limit: u32,
    /// The sliding window deaths are counted in; older deaths age out
    /// and no longer count against the breaker.
    pub crash_window: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            crash_limit: 5,
            crash_window: Duration::from_secs(30),
        }
    }
}

/// Where one shard is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// No serving process: spawning, backing off before a respawn, or
    /// spawned but not yet ready.
    Down,
    /// The worker reported ready and has not exited since.
    Live,
    /// The crash-loop breaker tripped; the shard is never respawned.
    Quarantined,
}

impl ShardPhase {
    /// The phase as its wire string (`down`/`live`/`quarantined`),
    /// used by the supervisor→worker fleet broadcasts.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardPhase::Down => "down",
            ShardPhase::Live => "live",
            ShardPhase::Quarantined => "quarantined",
        }
    }

    /// Parses a wire string back into a phase.
    pub fn parse(s: &str) -> Option<ShardPhase> {
        match s {
            "down" => Some(ShardPhase::Down),
            "live" => Some(ShardPhase::Live),
            "quarantined" => Some(ShardPhase::Quarantined),
            _ => None,
        }
    }
}

/// The policy's verdict on one shard death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAction {
    /// Respawn the worker after `delay` (deterministic exponential
    /// backoff over the deaths currently in the window).
    Respawn {
        /// How long to wait before the respawn attempt.
        delay: Duration,
    },
    /// The crash-loop breaker tripped: stop respawning this shard and
    /// let readiness degrade.
    Quarantine,
}

/// One shard's book-keeping.
#[derive(Debug)]
struct Shard {
    phase: ShardPhase,
    /// Death instants still inside the crash window, oldest first.
    deaths: VecDeque<Instant>,
    /// Spawn attempts so far (successful or not).
    spawns: u64,
}

/// The supervisor's process table: per-shard lifecycle phase, death
/// history and the fleet-level accounting (`restarts_total`, quorum).
#[derive(Debug)]
pub struct ShardTable {
    config: SupervisorConfig,
    shards: Vec<Shard>,
    restarts: u64,
}

impl ShardTable {
    /// A table for `count` shards, all initially [`ShardPhase::Down`].
    pub fn new(count: usize, config: SupervisorConfig) -> ShardTable {
        ShardTable {
            config,
            shards: (0..count)
                .map(|_| Shard {
                    phase: ShardPhase::Down,
                    deaths: VecDeque::new(),
                    spawns: 0,
                })
                .collect(),
            restarts: 0,
        }
    }

    /// Records a spawn attempt for `shard` (about to exec, successful
    /// or not). Every attempt beyond a shard's first counts as a
    /// restart in [`ShardTable::restarts_total`].
    pub fn record_spawn_attempt(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        if s.spawns > 0 {
            self.restarts += 1;
        }
        s.spawns += 1;
    }

    /// Records that `shard`'s worker reported itself serving.
    pub fn record_ready(&mut self, shard: usize) {
        if self.shards[shard].phase != ShardPhase::Quarantined {
            self.shards[shard].phase = ShardPhase::Live;
        }
    }

    /// Records that `shard`'s worker died (process exit or spawn
    /// failure) at `now`, and returns what to do about it: respawn
    /// after a deterministic backoff, or quarantine if this death is
    /// the [`SupervisorConfig::crash_limit`]-th inside the window.
    pub fn record_death(&mut self, shard: usize, now: Instant) -> ShardAction {
        let window = self.config.crash_window;
        let s = &mut self.shards[shard];
        while let Some(&oldest) = s.deaths.front() {
            if now.duration_since(oldest) >= window {
                s.deaths.pop_front();
            } else {
                break;
            }
        }
        s.deaths.push_back(now);
        let deaths_in_window = u32::try_from(s.deaths.len()).unwrap_or(u32::MAX);
        if deaths_in_window >= self.config.crash_limit.max(1) {
            s.phase = ShardPhase::Quarantined;
            return ShardAction::Quarantine;
        }
        s.phase = ShardPhase::Down;
        ShardAction::Respawn {
            delay: backoff_schedule(
                SHARD_BACKOFF_BASE,
                SHARD_BACKOFF_CAP,
                &format!("shard-{shard}"),
                deaths_in_window,
            ),
        }
    }

    /// The current phase of `shard`.
    pub fn phase(&self, shard: usize) -> ShardPhase {
        self.shards[shard].phase
    }

    /// Every shard's phase, in shard order (the fleet-broadcast
    /// payload).
    pub fn phases(&self) -> Vec<ShardPhase> {
        self.shards.iter().map(|s| s.phase).collect()
    }

    /// Shards currently [`ShardPhase::Live`].
    pub fn live(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.phase == ShardPhase::Live)
            .count()
    }

    /// Shards the breaker has quarantined.
    pub fn quarantined(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.phase == ShardPhase::Quarantined)
            .count()
    }

    /// Total respawns across the fleet (spawn attempts beyond each
    /// shard's first) — the `netart_serve_shard_restarts_total` value.
    pub fn restarts_total(&self) -> u64 {
        self.restarts
    }

    /// Whether at least `quorum` shards are live.
    pub fn quorum_ok(&self, quorum: usize) -> bool {
        self.live() >= quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(limit: u32, window_ms: u64) -> SupervisorConfig {
        SupervisorConfig {
            crash_limit: limit,
            crash_window: Duration::from_millis(window_ms),
        }
    }

    #[test]
    fn ready_and_death_drive_phases_and_quorum() {
        let mut table = ShardTable::new(2, config(5, 30_000));
        assert_eq!(table.live(), 0);
        assert!(!table.quorum_ok(1));
        table.record_spawn_attempt(0);
        table.record_spawn_attempt(1);
        table.record_ready(0);
        table.record_ready(1);
        assert_eq!(table.live(), 2);
        assert!(table.quorum_ok(2));
        assert_eq!(table.restarts_total(), 0, "first spawns are not restarts");

        let t0 = Instant::now();
        match table.record_death(1, t0) {
            ShardAction::Respawn { delay } => {
                assert!(delay >= SHARD_BACKOFF_BASE, "at least the base");
            }
            ShardAction::Quarantine => panic!("first death must respawn"),
        }
        assert_eq!(table.phase(1), ShardPhase::Down);
        assert!(!table.quorum_ok(2), "a dead shard breaks full quorum");
        assert!(table.quorum_ok(1));
        table.record_spawn_attempt(1);
        assert_eq!(table.restarts_total(), 1, "the respawn counts");
        table.record_ready(1);
        assert!(table.quorum_ok(2));
    }

    #[test]
    fn breaker_trips_at_the_limit_and_is_sticky() {
        let mut table = ShardTable::new(2, config(3, 60_000));
        let t0 = Instant::now();
        table.record_spawn_attempt(0);
        table.record_ready(0);
        assert!(matches!(
            table.record_death(0, t0),
            ShardAction::Respawn { .. }
        ));
        assert!(matches!(
            table.record_death(0, t0 + Duration::from_millis(100)),
            ShardAction::Respawn { .. }
        ));
        assert_eq!(
            table.record_death(0, t0 + Duration::from_millis(200)),
            ShardAction::Quarantine,
            "third death inside the window trips the breaker"
        );
        assert_eq!(table.phase(0), ShardPhase::Quarantined);
        assert_eq!(table.quarantined(), 1);
        // Quarantine is sticky: a stale ready report cannot revive it.
        table.record_ready(0);
        assert_eq!(table.phase(0), ShardPhase::Quarantined);
        assert!(!table.quorum_ok(2));
    }

    #[test]
    fn deaths_aging_out_of_the_window_reset_the_breaker() {
        let mut table = ShardTable::new(1, config(3, 5_000));
        let t0 = Instant::now();
        // Two deaths early in the window…
        let first = table.record_death(0, t0);
        table.record_death(0, t0 + Duration::from_secs(1));
        // …then quiet long enough for both to age out: the third death
        // is attempt 1 again — no quarantine, and the backoff restarts
        // from the base schedule.
        let late = table.record_death(0, t0 + Duration::from_secs(10));
        assert_eq!(late, first, "aged-out deaths reset the attempt number");
        assert!(matches!(late, ShardAction::Respawn { .. }));
        assert_eq!(table.phase(0), ShardPhase::Down, "not quarantined");
    }

    #[test]
    fn consecutive_deaths_back_off_exponentially_until_capped() {
        let mut table = ShardTable::new(1, config(u32::MAX, 60_000));
        let t0 = Instant::now();
        let mut prev_floor = Duration::ZERO;
        for attempt in 1..=8u32 {
            let action = table.record_death(0, t0 + Duration::from_millis(u64::from(attempt)));
            let ShardAction::Respawn { delay } = action else {
                panic!("no quarantine with an unbounded limit");
            };
            let floor = SHARD_BACKOFF_BASE
                .saturating_mul(1u32 << (attempt - 1))
                .min(SHARD_BACKOFF_CAP);
            assert!(delay >= floor, "attempt {attempt}: {delay:?} < {floor:?}");
            assert!(
                delay <= SHARD_BACKOFF_CAP + SHARD_BACKOFF_CAP / 4,
                "attempt {attempt}: {delay:?} over the jittered cap"
            );
            assert!(floor >= prev_floor, "the floor grows monotonically");
            prev_floor = floor;
        }
    }

    /// Property sweep over seeds × attempts: the restart-backoff
    /// schedule is a pure function of (seed, attempt) — recomputing it
    /// yields identical delays — and never exceeds the jittered cap.
    #[test]
    fn restart_backoff_schedule_is_deterministic_per_seed_and_capped() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(2);
        let mut distinct_jitter = false;
        for shard in 0..64usize {
            let seed = format!("shard-{shard}");
            for attempt in 1..=40u32 {
                let a = crate::backoff_schedule(base, cap, &seed, attempt);
                let b = crate::backoff_schedule(base, cap, &seed, attempt);
                assert_eq!(a, b, "seed {seed} attempt {attempt}: not deterministic");
                assert!(
                    a <= cap + cap / 4,
                    "seed {seed} attempt {attempt}: {a:?} exceeds the jittered cap"
                );
                let other = crate::backoff_schedule(base, cap, &format!("shard-{}", shard + 1), attempt);
                if other != a {
                    distinct_jitter = true;
                }
            }
        }
        assert!(distinct_jitter, "jitter must vary across seeds");
    }

    #[test]
    fn phase_wire_strings_roundtrip() {
        for phase in [ShardPhase::Down, ShardPhase::Live, ShardPhase::Quarantined] {
            assert_eq!(ShardPhase::parse(phase.as_str()), Some(phase));
        }
        assert_eq!(ShardPhase::parse("zombie"), None);
    }
}
