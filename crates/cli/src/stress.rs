//! `netart stress` — the memory-governance stress harness.
//!
//! Generates a parameterised big-N or adversarial workload (see
//! [`netart_workloads::text`]), writes it to disk, and pushes it
//! through the *real* governed ingestion path — streaming record
//! readers, the netlist doctor, the budgeted network builder — exactly
//! as `netart` would, then optionally places and routes the result.
//!
//! The harness asserts the governor's contract from the outside:
//!
//! * under an adequate `--max-input-bytes` / `--max-network-bytes`
//!   budget the workload ingests and routes cleanly (exit 0);
//! * over budget, the run is *refused* — exit 2 with the `ND015`
//!   diagnostic naming the exhausted stage and its byte counts, no
//!   panic, no OOM;
//! * with `--rss-limit`, the process's peak RSS (`VmHWM`) must stay
//!   under the stated bound, turning "streaming ingestion does not
//!   slurp" into a checkable claim (exit 1 when breached: that is a
//!   harness assertion failure, not a governed refusal).
//!
//! Routing degradations (ghost wires at large N) are reported but do
//! not affect the exit code — this harness judges memory governance,
//! not routing quality.

use std::path::{Path, PathBuf};
use std::time::Instant;

use netart::place::{Pablo, PlaceConfig};
use netart::route::RouteConfig;
use netart_workloads::text::{self, TextWorkload};

use crate::commands::{
    budget_from_args, load_library_dir, load_network_files, parse_bytes, CliError,
};
use crate::session::{RunOutput, Session, Spec, UNREPORTED};
use crate::ArgError;

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` `VmHWM`. `None` off Linux or when the proc file
/// is unreadable — the RSS assertion is then skipped, not failed.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_bytes() -> Option<u64> {
    None
}

fn human_bytes(n: u64) -> String {
    match n {
        n if n >= 1 << 30 => format!("{:.1} GiB", n as f64 / (1u64 << 30) as f64),
        n if n >= 1 << 20 => format!("{:.1} MiB", n as f64 / (1u64 << 20) as f64),
        n if n >= 1 << 10 => format!("{:.1} KiB", n as f64 / (1u64 << 10) as f64),
        n => format!("{n} B"),
    }
}

/// Builds the requested workload. `modules` is a target, not a
/// contract — grid workloads round to their natural shape.
fn build_workload(
    kind: &str,
    modules: usize,
    seed: u64,
) -> Result<TextWorkload, CliError> {
    let w = match kind {
        "cell-array" => {
            let rows = ((modules as f64).sqrt() as usize).max(1);
            let cols = modules.div_ceil(rows);
            text::cell_array(rows, cols)
        }
        "hierarchy" => text::random_hierarchy(modules.max(2), seed),
        "datapath" => {
            let bits = 32usize.min(modules.max(2) - 1).max(1);
            let stages = modules.div_ceil(bits + 1).max(1);
            text::datapath_stack(bits, stages)
        }
        "fanout" => text::pathological_fanout(modules.max(2) - 1),
        "amplify" => text::amplified_calls(modules.max(2)),
        other => {
            return Err(ArgError::BadValue {
                flag: "workload".into(),
                value: other.into(),
            }
            .into())
        }
    };
    Ok(w)
}

/// `netart stress [--workload kind] [--modules n] [--seed s]
/// [--adversary truncate|garbage] [--phase parse|place|route]
/// [--max-input-bytes b] [--max-network-bytes b] [--rss-limit b]
/// [--out dir] [--input-policy p] [--route-timeout ms] [--max-nodes n]
/// [--inject spec] [--trace-level lvl] [--trace-out path] [--log-json]`
///
/// Workload kinds: `cell-array` (default; a near-square systolic
/// grid), `hierarchy` (seeded random tree), `datapath` (bit-sliced
/// stages with wide control nets), `fanout` (one net with `--modules`
/// pins), `amplify` (huge call text over a one-template library).
/// `--modules` (default 1000) scales the workload; generators are
/// byte-deterministic per `(kind, modules, seed)`.
///
/// `--adversary truncate` cuts the net-list mid-record; `--adversary
/// garbage` appends seeded binary-ish noise — both exercise the
/// doctor's fail-closed paths at scale. `--phase parse` stops after
/// the governed ingestion; `--phase place` then runs PABLO alone and
/// reports its time; `--phase route` (the default) runs the full
/// pipeline and reports the place and route times separately.
///
/// Exit 0: ingested (and routed) under budget. Exit 2: the memory
/// governor refused the workload (`ND015` with stage and byte counts).
/// Exit 1: harness assertion failure — an `--rss-limit` breach or a
/// non-governance pipeline error.
///
/// # Errors
///
/// Any [`CliError`] condition, including an unwritable `--out`
/// directory and a breached `--rss-limit`.
pub fn run_stress(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&STRESS, argv, stress)
}

static STRESS: Spec = Spec {
    shared: UNREPORTED,
    options: &[
        "workload", "modules", "seed", "adversary", "phase", "rss-limit", "out", "route-timeout",
        "max-nodes",
    ],
    switches: &["keep"],
    operands: (0, 0),
    newline: true,
};

/// Removes the generated workload directory when dropped, so every
/// way out of a run — a governed refusal included — cleans up.
struct Ephemeral<'a>(Option<&'a Path>);

impl Drop for Ephemeral<'_> {
    fn drop(&mut self) {
        if let Some(dir) = self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn stress(session: &Session) -> Result<RunOutput, CliError> {
    let args = &session.args;
    let budgets = &session.budgets;
    let modules: usize = args.parsed("modules", 1000usize)?;
    let seed: u64 = args.parsed("seed", 1u64)?;
    let kind = args.value("workload").unwrap_or("cell-array");
    let phase = args.value("phase").unwrap_or("route");
    if !matches!(phase, "parse" | "place" | "route") {
        return Err(ArgError::BadValue {
            flag: "phase".into(),
            value: phase.into(),
        }
        .into());
    }
    let rss_limit = match args.value("rss-limit") {
        Some(s) => Some(parse_bytes("rss-limit", s)?),
        None => None,
    };

    let mut workload = build_workload(kind, modules, seed)?;
    workload = match args.value("adversary") {
        None => workload,
        Some("truncate") => {
            let keep = workload.net.len().saturating_sub(workload.net.len() / 3 + 2);
            workload.with_truncated_tail(keep)
        }
        Some("garbage") => workload.with_garbage_tail(64.max(modules / 4), seed),
        Some(other) => {
            return Err(ArgError::BadValue {
                flag: "adversary".into(),
                value: other.into(),
            }
            .into())
        }
    };
    let generated = workload.total_bytes();

    let (dir, ephemeral) = match args.value("out") {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!(
                "netart-stress-{}-{}",
                workload.name,
                std::process::id()
            )),
            !args.has("keep"),
        ),
    };
    let paths = workload.write_to(&dir).map_err(CliError::io(&dir))?;
    let cleanup = Ephemeral(ephemeral.then_some(dir.as_path()));

    // The governed ingestion path, verbatim: streamed module library,
    // streamed netlist trio, budgeted network build. An exhaustion
    // anywhere is the contract working — degraded exit 2 with ND015.
    let t_parse = Instant::now();
    let mut degs = Vec::new();
    let lib = load_library_dir(&paths.lib, session.policy, budgets, &mut degs)?;
    let (network, mut net_degs) = load_network_files(
        lib,
        &paths.net,
        &paths.cal,
        paths.io.as_deref(),
        session.policy,
        budgets,
    )?;
    degs.append(&mut net_degs);
    let parse_s = t_parse.elapsed().as_secs_f64();

    let mut summary = format!(
        "stress {}: {} modules, {} nets, {} generated; parsed in {parse_s:.3}s \
         (network budget {} charged)",
        workload.name,
        network.module_count(),
        network.net_count(),
        human_bytes(generated),
        human_bytes(budgets.network.used()),
    );

    if phase == "place" {
        let t_place = Instant::now();
        Pablo::new(PlaceConfig::new()).place(&network);
        let place_s = t_place.elapsed().as_secs_f64();
        summary.push_str(&format!("; placed in {place_s:.3}s"));
    } else if phase == "route" {
        let route = RouteConfig::new().with_budget(budget_from_args(args)?);
        let outcome = netart::Generator::new()
            .with_placing(PlaceConfig::new())
            .with_routing(route)
            .generate(network);
        summary.push_str(&format!(
            "; placed in {:.3}s, routed {}/{} nets in {:.3}s",
            outcome.place_time.as_secs_f64(),
            outcome.report.routed.len(),
            outcome.report.routed.len() + outcome.report.failed.len(),
            outcome.route_time.as_secs_f64(),
        ));
        if !outcome.is_clean() {
            summary.push_str(" (degraded: reported, not judged)");
        }
    }
    if !degs.is_empty() {
        summary.push_str(&format!("; {} doctor repair(s) applied", degs.len()));
    }

    let rss = peak_rss_bytes();
    match rss {
        Some(rss) => summary.push_str(&format!("; peak RSS {}", human_bytes(rss))),
        None => summary.push_str("; peak RSS unavailable on this platform"),
    }
    drop(cleanup);

    if let (Some(limit), Some(rss)) = (rss_limit, rss) {
        if rss > limit {
            // A harness failure still leaves its trace behind.
            session.write_trace()?;
            return Err(CliError::Other(format!(
                "peak RSS {} breaches the --rss-limit of {} — streaming ingestion \
                 slurped ({summary})",
                human_bytes(rss),
                human_bytes(limit),
            )));
        }
        summary.push_str(&format!(" (under the {} limit)", human_bytes(limit)));
    }

    Ok(RunOutput::new(summary, false))
}
