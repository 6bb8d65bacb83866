//! `netart profile` — the routing heat-map profiler.
//!
//! Runs the full pipeline on one design, then aggregates the per-net
//! EUREKA effort counters ([`NetRouteStats`]) into a spatial grid over
//! the diagram: where the router spent its search nodes, where the
//! salvage cascade ripped up victims, where salvaged nets settled.
//! The output is an ASCII heat map on stdout plus (with `--heat-json`)
//! the schema-versioned [`ProfileReport`] document, which `netart
//! report diff` can compare against a baseline profile.
//!
//! Everything in the JSON document derives from deterministic
//! counters — no wall-clock members — so two runs over the same input
//! are bit-identical, making profiles diffable and CI-pinnable.

use netart::obs::{ProfileCell, ProfileReport, ProfileTotals};
use netart::place::PlaceConfig;
use netart::route::{NetRouteStats, RouteConfig};
use netart::Outcome;

use crate::commands::{
    arm_faults, budget_from_args, input_policy, install_subscriber, load_network, order_from_args,
    write_or_stdout, write_trace, CliError, RunOutput,
};
use crate::{ArgError, ParsedArgs};

/// An inclusive diagram-coordinate bounding box `(min_x, min_y,
/// max_x, max_y)`.
type Bbox = (i32, i32, i32, i32);

fn union(a: Option<Bbox>, b: Option<Bbox>) -> Option<Bbox> {
    match (a, b) {
        (Some((ax0, ay0, ax1, ay1)), Some((bx0, by0, bx1, by1))) => {
            Some((ax0.min(bx0), ay0.min(by0), ax1.max(bx1), ay1.max(by1)))
        }
        (a, None) => a,
        (None, b) => b,
    }
}

/// The spatial footprint of one net's routing effort: the searches'
/// activation bbox when the regular passes ran, else the routed
/// geometry, else the ghost-wire endpoints. `None` for nets with no
/// spatial trace at all (prerouted point nets).
fn net_footprint(outcome: &Outcome, s: &NetRouteStats) -> Option<Bbox> {
    if let Some(bbox) = s.search_bbox {
        return Some(bbox);
    }
    let mut bbox = None;
    if let Some(path) = outcome.diagram.route(s.net) {
        for seg in path.segments() {
            let (a, b) = seg.endpoints();
            bbox = union(bbox, Some((a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))));
        }
    }
    if bbox.is_none() {
        if let Some(ghost) = outcome.diagram.ghost(s.net) {
            for (a, b) in &ghost.lines {
                bbox = union(bbox, Some((a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))));
            }
        }
    }
    bbox
}

/// Buckets the per-net counters onto a `grid`×`grid` heat map.
///
/// Counter conservation is the invariant that makes profiles diffable:
/// each net's `nodes_expanded` and `ripup_victims` are split evenly
/// over its touched cells with the remainder going to the earliest
/// cells (row-major), so the cell sums equal the per-net sums exactly.
/// Nets without a spatial footprint still count in the totals.
fn build_profile(outcome: &Outcome, grid: u32) -> ProfileReport {
    let stats = &outcome.report.net_stats;
    let totals = ProfileTotals {
        nets: stats.len() as u64,
        routed: stats.iter().filter(|s| s.routed).count() as u64,
        expansions: stats.iter().map(|s| s.nodes_expanded).sum(),
        ripup_victims: stats.iter().map(|s| u64::from(s.ripup_victims)).sum(),
        salvaged: stats.iter().filter(|s| s.salvage.is_some()).count() as u64,
    };

    let footprints: Vec<(usize, Bbox)> = stats
        .iter()
        .enumerate()
        .filter_map(|(i, s)| net_footprint(outcome, s).map(|b| (i, b)))
        .collect();
    let bounds = footprints
        .iter()
        .fold(None, |acc, (_, b)| union(acc, Some(*b)));
    let Some((x0, y0, x1, y1)) = bounds else {
        // Nothing spatial at all (an empty or fully point-prerouted
        // design): a degenerate but valid profile.
        return ProfileReport {
            tool: "netart profile".to_owned(),
            cols: grid,
            rows: grid,
            bounds: (0, 0, 0, 0),
            totals,
            cells: Vec::new(),
        };
    };

    // Exclusive upper bounds; cell size rounds up so grid*size covers
    // the whole extent.
    let width = i64::from(x1) - i64::from(x0) + 1;
    let height = i64::from(y1) - i64::from(y0) + 1;
    let cell_w = (width + i64::from(grid) - 1) / i64::from(grid);
    let cell_h = (height + i64::from(grid) - 1) / i64::from(grid);
    let cell_w = cell_w.max(1);
    let cell_h = cell_h.max(1);

    let cols = grid as usize;
    let rows = grid as usize;
    let mut cells = vec![ProfileCell::default(); cols * rows];
    let clamp = |v: i64, max: usize| (v.max(0) as usize).min(max - 1);
    for (i, (bx0, by0, bx1, by1)) in footprints {
        let s = &stats[i];
        let c0 = clamp((i64::from(bx0) - i64::from(x0)) / cell_w, cols);
        let c1 = clamp((i64::from(bx1) - i64::from(x0)) / cell_w, cols);
        // Row 0 is the top edge, diagram y grows upward: flip.
        let r0 = clamp(
            i64::from(grid) - 1 - (i64::from(by1) - i64::from(y0)) / cell_h,
            rows,
        );
        let r1 = clamp(
            i64::from(grid) - 1 - (i64::from(by0) - i64::from(y0)) / cell_h,
            rows,
        );
        let touched: Vec<usize> = (r0..=r1)
            .flat_map(|r| (c0..=c1).map(move |c| r * cols + c))
            .collect();
        let k = touched.len() as u64;
        let spread = |total: u64, idx: usize| total / k + u64::from((idx as u64) < total % k);
        for (idx, &cell) in touched.iter().enumerate() {
            cells[cell].expansions += spread(s.nodes_expanded, idx);
            cells[cell].ripup_victims += spread(u64::from(s.ripup_victims), idx);
            cells[cell].nets += 1;
        }
        if s.salvage.is_some() {
            cells[touched[0]].salvaged += 1;
        }
    }

    let cells = cells
        .into_iter()
        .enumerate()
        .filter(|(_, c)| c.expansions + c.ripup_victims + c.salvaged + c.nets > 0)
        .map(|(i, mut c)| {
            c.col = (i % cols) as u32;
            c.row = (i / cols) as u32;
            c
        })
        .collect();
    ProfileReport {
        tool: "netart profile".to_owned(),
        cols: grid,
        rows: grid,
        bounds: (
            i64::from(x0),
            i64::from(y0),
            i64::from(x0) + cell_w * i64::from(grid),
            i64::from(y0) + cell_h * i64::from(grid),
        ),
        totals,
        cells,
    }
}

/// `netart profile [--grid n] [--heat-json out.json] [-L libdir]
/// [-m margin] [--order o] [--route-timeout ms] [--max-nodes n]
/// [--input-policy p] [--inject spec] [--trace-level lvl]
/// [--trace-out path] [--log-json] net-list call-file [io-file]`
///
/// Routes the design once and prints the spatial congestion heat map
/// (`--grid` cells per side, default 16). `--heat-json` writes the
/// schema-versioned profile document (`-` for stdout; the ASCII map
/// then moves to stderr), which `netart report diff` accepts on
/// either side. The document carries only deterministic counters:
/// profiling the same input twice produces bit-identical JSON.
///
/// # Errors
///
/// Any [`CliError`] condition, including unreadable inputs and a
/// `--grid` of zero.
pub fn run_profile(argv: &[String]) -> Result<RunOutput, CliError> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "grid", "heat-json", "L", "m", "order", "route-timeout", "max-nodes", "input-policy",
            "inject", "trace-level", "trace-out", "max-input-bytes", "max-network-bytes",
        ],
        &["log-json"],
        (2, 3),
    )?;
    let trace_buffer = install_subscriber(&args)?;
    arm_faults(&args)?;
    let grid = args.parsed("grid", 16u32)?;
    if grid == 0 || grid > 512 {
        return Err(ArgError::BadValue {
            flag: "grid".into(),
            value: grid.to_string(),
        }
        .into());
    }
    let policy = input_policy(&args)?;
    let budgets = crate::commands::budgets_from_args(&args)?;
    let (network, _degs) = match load_network(&args, policy, &budgets) {
        Ok(v) => v,
        Err(e @ CliError::ResourceExhausted { .. }) => {
            return Ok(crate::commands::exhausted_output(&e, false, false))
        }
        Err(e) => return Err(e),
    };

    let order = order_from_args(&args)?;
    let route = RouteConfig::new()
        .with_margin(args.parsed("m", 4i32)?)
        .with_order(order)
        .with_budget(budget_from_args(&args)?);
    let outcome = netart::Generator::new()
        .with_placing(PlaceConfig::new())
        .with_routing(route)
        .generate(network);

    let profile = build_profile(&outcome, grid);
    let mut message_to_stderr = false;
    if let Some(path) = args.value("heat-json") {
        write_or_stdout(path, &profile.to_json_string())?;
        message_to_stderr = path == "-";
    }
    write_trace(&args, trace_buffer.as_ref())?;
    Ok(RunOutput {
        message: profile.render_ascii(),
        degraded: false,
        strict: false,
        message_to_stderr,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn spread_conserves_counts_and_first_cells_take_the_remainder() {
        // The closure logic, restated: 10 over 4 cells = 3,3,2,2.
        let k = 4u64;
        let spread = |total: u64, idx: usize| total / k + u64::from((idx as u64) < total % k);
        let parts: Vec<u64> = (0..4).map(|i| spread(10, i)).collect();
        assert_eq!(parts, vec![3, 3, 2, 2]);
        assert_eq!(parts.iter().sum::<u64>(), 10);
    }
}
