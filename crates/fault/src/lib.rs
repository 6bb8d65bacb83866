//! Deterministic fault injection for the `netart` pipeline.
//!
//! A *fault point* is a named site in the pipeline — `route.net`,
//! `place.partition`, `emit.escher`, … (see [`sites`]) — where an
//! induced failure can be requested. Faults are *armed* before a run
//! with a spec of the form
//!
//! ```text
//! site[:nth][:kind]
//! ```
//!
//! where `nth` (default 1) picks the n-th time the site is hit and
//! `kind` (default `panic`) is one of `panic`, `error`,
//! `budget-exhaust` or `garbage-output`. Each armed fault fires exactly
//! once, which makes retry a legitimate recovery path: the second
//! attempt runs clean. Hit counting is per armed spec and strictly
//! sequential, so a run with a fixed input and a fixed spec always
//! fails at the same place — injection is deterministic, no randomness
//! involved.
//!
//! The whole registry is compiled away unless the `fault-injection`
//! cargo feature is enabled: without it [`fire`] is an inlined
//! `None` and [`arm`] refuses with an explanatory error, so release
//! binaries carry no fault-point overhead.
//!
//! # Examples
//!
//! ```
//! // Arming only works in builds with the feature on; parsing and the
//! // site catalogue are always available.
//! let spec: netart_fault::FaultSpec = "route.net:2:error".parse().unwrap();
//! assert_eq!(spec.nth, 2);
//! assert!(netart_fault::sites::ALL.contains(&"route.net"));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;
use std::str::FromStr;

/// The catalogue of named fault points threaded through the pipeline.
pub mod sites {
    /// Appendix A netlist parsing (the doctor's entry point).
    pub const PARSE_NETWORK: &str = "parse.network";
    /// Quinto module description parsing (one hit per module file).
    pub const PARSE_MODULE: &str = "parse.module";
    /// A governed allocation during ingestion: fires at the memory
    /// budget's charge point, simulating `ND015 resource-exhausted`
    /// even when the budget itself is unlimited.
    pub const PARSE_ALLOC: &str = "parse.alloc";
    /// PABLO seeded partitioning pass.
    pub const PLACE_PARTITION: &str = "place.partition";
    /// PABLO per-partition box/module layout pass.
    pub const PLACE_MODULE: &str = "place.module_place";
    /// PABLO partition packing pass.
    pub const PLACE_CLUSTER: &str = "place.cluster";
    /// PABLO centre-of-gravity cluster placement (one hit per call).
    pub const PLACE_GRAVITY: &str = "place.gravity";
    /// PABLO system terminal ring placement.
    pub const PLACE_TERMINAL: &str = "place.terminal_place";
    /// EUREKA per-net routing (one hit per net; the injected fault
    /// poisons that net's regular passes until the salvage cascade).
    pub const ROUTE_NET: &str = "route.net";
    /// Salvage cascade: the rip-up + escalated-retry stage.
    pub const ROUTE_SALVAGE_RIPUP: &str = "route.salvage.ripup";
    /// Salvage cascade: the Lee fallback stage.
    pub const ROUTE_SALVAGE_LEE: &str = "route.salvage.lee";
    /// ESCHER diagram emission in the CLI.
    pub const EMIT_ESCHER: &str = "emit.escher";
    /// Batch engine: one hit per job attempt, fired inside the worker
    /// before the pipeline runs (exercises worker isolation + retry).
    pub const ENGINE_JOB: &str = "engine.job";
    /// Batch engine: manifest aggregation/serialisation.
    pub const ENGINE_MANIFEST: &str = "engine.manifest";
    /// Serve: one hit per admitted request, fired inside the worker's
    /// `catch_unwind` before the pipeline (a panicking request must
    /// come back as a `500`, never kill the listener).
    pub const SERVE_REQUEST: &str = "serve.request";
    /// Serve: the artifact-cache lookup/insert path (a cache fault
    /// must degrade to a recompute, never break the response).
    pub const SERVE_CACHE: &str = "serve.cache";
    /// Serve: the telemetry record/render path (a telemetry fault must
    /// degrade to "metrics unavailable", never drop the request being
    /// observed).
    pub const SERVE_TELEMETRY: &str = "serve.telemetry";
    /// Serve: the shard supervisor's worker spawn/respawn path (a
    /// spawn fault must count as a shard death and feed the backoff /
    /// crash-loop machinery, never kill the supervisor).
    pub const SERVE_SPAWN: &str = "serve.spawn";
    /// Observability: the flight-recorder blackbox dump write (a
    /// failing dump must surface as a `flight_dump_failed`
    /// degradation, never disturb the request being dumped about).
    pub const OBS_FLIGHT: &str = "obs.flight";

    /// Every site, for sweeps and spec validation.
    pub const ALL: &[&str] = &[
        PARSE_NETWORK,
        PARSE_MODULE,
        PARSE_ALLOC,
        PLACE_PARTITION,
        PLACE_MODULE,
        PLACE_CLUSTER,
        PLACE_GRAVITY,
        PLACE_TERMINAL,
        ROUTE_NET,
        ROUTE_SALVAGE_RIPUP,
        ROUTE_SALVAGE_LEE,
        EMIT_ESCHER,
        ENGINE_JOB,
        ENGINE_MANIFEST,
        SERVE_REQUEST,
        SERVE_CACHE,
        SERVE_TELEMETRY,
        SERVE_SPAWN,
        OBS_FLIGHT,
    ];
}

/// What an armed fault does when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises phase-boundary isolation).
    Panic,
    /// Make the site report failure through its natural error channel.
    /// Sites without one escalate to a panic (see [`fire_hard`]).
    Error,
    /// Make the site behave as if its budget were exhausted. Sites
    /// without a budget treat this like `Error`.
    BudgetExhaust,
    /// Make the site produce corrupt output, so downstream self-checks
    /// must catch it. Sites that produce no output treat this like
    /// `Error`.
    GarbageOutput,
}

impl FaultKind {
    /// The spec spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::BudgetExhaust => "budget-exhaust",
            FaultKind::GarbageOutput => "garbage-output",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "error" => Ok(FaultKind::Error),
            "budget-exhaust" => Ok(FaultKind::BudgetExhaust),
            "garbage-output" => Ok(FaultKind::GarbageOutput),
            other => Err(format!(
                "unknown fault kind `{other}` (expected panic, error, budget-exhaust or garbage-output)"
            )),
        }
    }
}

/// A parsed `site[:nth][:kind]` injection spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault point to fire at (one of [`sites::ALL`]).
    pub site: String,
    /// Fire on the n-th hit of the site (1-based).
    pub nth: u32,
    /// What to do when it fires.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.nth, self.kind)
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let site = parts.next().unwrap_or_default().trim();
        if site.is_empty() {
            return Err("empty fault spec (expected site[:nth][:kind])".into());
        }
        if !sites::ALL.contains(&site) {
            return Err(format!(
                "unknown fault site `{site}` (known sites: {})",
                sites::ALL.join(", ")
            ));
        }
        let mut nth: u32 = 1;
        let mut kind = FaultKind::Panic;
        let mut saw_nth = false;
        let mut saw_kind = false;
        for part in parts {
            if let Ok(n) = part.parse::<u32>() {
                if saw_nth || saw_kind {
                    return Err(format!("misplaced `{part}` in fault spec `{s}`"));
                }
                if n == 0 {
                    return Err("fault spec `nth` is 1-based; 0 never fires".into());
                }
                nth = n;
                saw_nth = true;
            } else {
                if saw_kind {
                    return Err(format!("duplicate fault kind in spec `{s}`"));
                }
                kind = part.parse()?;
                saw_kind = true;
            }
        }
        Ok(FaultSpec {
            site: site.to_owned(),
            nth,
            kind,
        })
    }
}

#[cfg(feature = "fault-injection")]
mod registry {
    use super::{FaultKind, FaultSpec};
    use std::sync::{Mutex, PoisonError};

    struct Armed {
        spec: FaultSpec,
        hits: u32,
        fired: bool,
    }

    static REGISTRY: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

    fn with_registry<T>(f: impl FnOnce(&mut Vec<Armed>) -> T) -> T {
        let mut guard = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    pub fn arm(spec: FaultSpec) {
        with_registry(|reg| {
            reg.push(Armed {
                spec,
                hits: 0,
                fired: false,
            });
        });
    }

    pub fn disarm_all() {
        with_registry(Vec::clear);
    }

    pub fn fire(site: &str) -> Option<FaultKind> {
        with_registry(|reg| {
            for armed in reg.iter_mut().filter(|a| a.spec.site == site) {
                if armed.fired {
                    continue;
                }
                armed.hits += 1;
                if armed.hits >= armed.spec.nth {
                    armed.fired = true;
                    return Some(armed.spec.kind);
                }
            }
            None
        })
    }

    pub fn fired() -> Vec<String> {
        with_registry(|reg| {
            reg.iter()
                .filter(|a| a.fired)
                .map(|a| a.spec.to_string())
                .collect()
        })
    }

    pub fn fired_count() -> usize {
        with_registry(|reg| reg.iter().filter(|a| a.fired).count())
    }
}

/// Whether this build carries the fault-injection registry.
pub const fn enabled() -> bool {
    cfg!(feature = "fault-injection")
}

/// Arms one `site[:nth][:kind]` spec.
///
/// # Errors
///
/// Rejects malformed specs and unknown sites or kinds; in builds
/// without the `fault-injection` feature, rejects every spec with an
/// explanation.
pub fn arm(spec: &str) -> Result<(), String> {
    let parsed: FaultSpec = spec.parse()?;
    #[cfg(feature = "fault-injection")]
    {
        registry::arm(parsed);
        Ok(())
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = parsed;
        Err(
            "this binary was built without the `fault-injection` feature; \
             rebuild with `--features fault-injection` to use fault injection"
                .into(),
        )
    }
}

/// Arms every comma-separated spec in the `NETART_INJECT` environment
/// variable. Absent or empty means nothing to arm.
///
/// # Errors
///
/// As [`arm`], for the first offending spec.
pub fn arm_from_env() -> Result<usize, String> {
    let Some(value) = std::env::var_os("NETART_INJECT") else {
        return Ok(0);
    };
    let value = value.to_string_lossy();
    let mut count = 0;
    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        arm(part)?;
        count += 1;
    }
    Ok(count)
}

/// Disarms every armed fault (between chaos test cases).
pub fn disarm_all() {
    #[cfg(feature = "fault-injection")]
    registry::disarm_all();
}

/// The specs (as `site:nth:kind` strings) that have fired so far.
pub fn fired() -> Vec<String> {
    #[cfg(feature = "fault-injection")]
    {
        registry::fired()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        Vec::new()
    }
}

/// How many armed faults have fired so far. Callers snapshot this
/// around an attempt to tell an injected failure (retry is sound)
/// from a genuine one (it is not).
pub fn fired_count() -> usize {
    #[cfg(feature = "fault-injection")]
    {
        registry::fired_count()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        0
    }
}

/// The fault point itself. Returns the armed kind when this hit is the
/// one to fire on, `None` otherwise (and always `None` without the
/// `fault-injection` feature — the call inlines away).
///
/// # Panics
///
/// A fired [`FaultKind::Panic`] panics here, with the site named in
/// the payload; the other kinds are returned for the site to act on.
#[inline]
pub fn fire(site: &str) -> Option<FaultKind> {
    #[cfg(feature = "fault-injection")]
    {
        match registry::fire(site) {
            Some(FaultKind::Panic) => {
                std::panic::panic_any(format!("injected panic at fault site `{site}`"))
            }
            other => other,
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        None
    }
}

/// A fault point in code with no natural error channel: every fired
/// kind escalates to a panic (naming the kind and site), so the
/// surrounding phase-boundary isolation is what gets exercised.
#[inline]
pub fn fire_hard(site: &str) {
    #[cfg(feature = "fault-injection")]
    if let Some(kind) = fire(site) {
        std::panic::panic_any(format!(
            "injected `{kind}` fault at site `{site}` (no error channel; escalated to panic)"
        ));
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
    }
}

/// A fault point guarding a step the caller can do without: fires
/// `site` once, then runs `f`. Returns `None` when the site fires (any
/// kind, panic included) or when `f` panics, so the step degrades
/// instead of failing whatever it serves.
pub fn survive<T>(site: &str, f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fire(site).is_none().then(f)))
        .ok()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_defaults_and_orders() {
        let s: FaultSpec = "route.net".parse().unwrap();
        assert_eq!((s.site.as_str(), s.nth, s.kind), ("route.net", 1, FaultKind::Panic));
        let s: FaultSpec = "route.net:3".parse().unwrap();
        assert_eq!(s.nth, 3);
        let s: FaultSpec = "route.net:error".parse().unwrap();
        assert_eq!(s.kind, FaultKind::Error);
        let s: FaultSpec = "route.net:2:garbage-output".parse().unwrap();
        assert_eq!((s.nth, s.kind), (2, FaultKind::GarbageOutput));
        assert_eq!(s.to_string(), "route.net:2:garbage-output");
    }

    #[test]
    fn spec_parsing_rejects_bad_input() {
        assert!("".parse::<FaultSpec>().is_err());
        assert!("nowhere.good".parse::<FaultSpec>().is_err());
        assert!("route.net:0".parse::<FaultSpec>().is_err());
        assert!("route.net:sideways".parse::<FaultSpec>().is_err());
        assert!("route.net:error:2".parse::<FaultSpec>().is_err());
        assert!("route.net:error:panic".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn every_site_spec_round_trips() {
        for site in sites::ALL {
            let spec: FaultSpec = format!("{site}:1:error").parse().unwrap();
            assert_eq!(spec.site, *site);
        }
    }

    #[test]
    fn survive_runs_a_quiet_step_and_swallows_its_panic() {
        assert_eq!(survive("serve.cache", || 7), Some(7));
        let panicked: Option<()> = survive("serve.cache", || panic!("step failed"));
        assert_eq!(panicked, None);
    }

    #[cfg(not(feature = "fault-injection"))]
    mod disabled {
        use super::*;

        #[test]
        fn arm_refuses_and_fire_is_inert() {
            assert!(!enabled());
            let err = arm("route.net:1:error").unwrap_err();
            assert!(err.contains("fault-injection"), "{err}");
            assert_eq!(fire("route.net"), None);
            fire_hard("route.net"); // must not panic
            assert_eq!(fired_count(), 0);
            assert!(fired().is_empty());
        }
    }

    #[cfg(feature = "fault-injection")]
    mod enabled {
        use super::*;
        use std::sync::{Mutex, PoisonError};

        // The registry is process-global; serialize the tests that use it.
        static LOCK: Mutex<()> = Mutex::new(());

        fn guard() -> std::sync::MutexGuard<'static, ()> {
            LOCK.lock().unwrap_or_else(PoisonError::into_inner)
        }

        #[test]
        fn fires_once_on_the_nth_hit() {
            let _g = guard();
            disarm_all();
            arm("route.net:2:error").unwrap();
            assert_eq!(fire("route.net"), None);
            assert_eq!(fire("route.net"), Some(FaultKind::Error));
            // One-shot: further hits pass through.
            assert_eq!(fire("route.net"), None);
            assert_eq!(fired(), vec!["route.net:2:error".to_string()]);
            assert_eq!(fired_count(), 1);
            disarm_all();
        }

        #[test]
        fn sites_are_independent() {
            let _g = guard();
            disarm_all();
            arm("route.net:1:budget-exhaust").unwrap();
            arm("emit.escher:1:garbage-output").unwrap();
            assert_eq!(fire("place.partition"), None);
            assert_eq!(fire("emit.escher"), Some(FaultKind::GarbageOutput));
            assert_eq!(fire("route.net"), Some(FaultKind::BudgetExhaust));
            assert_eq!(fired_count(), 2);
            disarm_all();
        }

        #[test]
        fn panic_kind_panics_with_site_in_payload() {
            let _g = guard();
            disarm_all();
            arm("place.cluster:1:panic").unwrap();
            let payload = std::panic::catch_unwind(|| fire("place.cluster")).unwrap_err();
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("place.cluster"), "{msg}");
            assert_eq!(fired_count(), 1, "a panic fire still counts as fired");
            disarm_all();
        }

        #[test]
        fn fire_hard_escalates_every_kind() {
            let _g = guard();
            disarm_all();
            arm("place.gravity:1:garbage-output").unwrap();
            let payload = std::panic::catch_unwind(|| fire_hard("place.gravity")).unwrap_err();
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("garbage-output"), "{msg}");
            disarm_all();
        }

        #[test]
        fn survive_gives_none_for_every_fired_kind_and_fires_once_per_call() {
            let _g = guard();
            for kind in ["panic", "error", "budget-exhaust", "garbage-output"] {
                disarm_all();
                arm(&format!("obs.flight:2:{kind}")).unwrap();
                let ran = std::cell::Cell::new(0);
                let step = || {
                    ran.set(ran.get() + 1);
                    ran.get()
                };
                assert_eq!(survive("obs.flight", step), Some(1), "{kind}: first hit is quiet");
                assert_eq!(survive("obs.flight", step), None, "{kind}: second hit fires");
                assert_eq!(ran.get(), 1, "{kind}: a fired site skips the step");
                assert_eq!(survive("obs.flight", step), Some(2), "{kind}: one-shot");
                assert_eq!(fired(), vec![format!("obs.flight:2:{kind}")]);
            }
            disarm_all();
        }

        #[test]
        fn env_arming_parses_lists() {
            let _g = guard();
            disarm_all();
            std::env::set_var("NETART_INJECT", "route.net:1:error, emit.escher");
            let n = arm_from_env().unwrap();
            assert_eq!(n, 2);
            std::env::set_var("NETART_INJECT", "bogus.site");
            assert!(arm_from_env().is_err());
            std::env::remove_var("NETART_INJECT");
            assert_eq!(arm_from_env().unwrap(), 0);
            disarm_all();
        }
    }
}
