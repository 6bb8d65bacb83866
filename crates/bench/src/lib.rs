//! Shared experiment harness for the `netart` benchmark suite.
//!
//! One runner per table row / figure of Koster & Stok (1989) §6, each
//! returning a [`Row`] with the quantities the paper reports (module
//! and net counts, placement and routing CPU time) plus the diagram
//! quality metrics the guidelines optimise. The Criterion benches in
//! `benches/` time the same runners; the `repro_report` binary prints
//! the full paper-versus-measured account used in `EXPERIMENTS.md`.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use netart::diagram::{Diagram, DiagramMetrics};
use netart::geom::{Point, Rotation};
use netart::netlist::doctor::{self, InputPolicy};
use netart::netlist::ingest::records_from_str;
use netart::netlist::{Library, Network};
use netart::obs::{Json, RunReport};
use netart::place::PlaceConfig;
use netart::route::RouteConfig;
use netart::Generator;
use netart_govern::MemBudget;
use netart_workloads::text::{self, TextWorkload};
use netart_workloads::{controller_cluster, life, string_chain};

mod maze;
pub use maze::{random_maze, Maze, MazeSpec};

/// The random mazes of the §5.2/§5.4 router class comparison (see
/// [`random_maze`]).
pub const COMPARISON_MAZES: MazeSpec =
    MazeSpec { width: 24..48, height: 20..40, modules: 3..9, module_side: 2..9, nets: 0..4 };

/// One row of the reproduced table 6.1, with quality metrics attached.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which paper figure this row reproduces.
    pub label: &'static str,
    /// Modules in the network.
    pub modules: usize,
    /// Nets in the network.
    pub nets: usize,
    /// Placement wall time (`None` for routing-only rows, like the
    /// paper's dashes).
    pub place_time: Option<Duration>,
    /// Routing wall time.
    pub route_time: Duration,
    /// Nets routed successfully.
    pub routed: usize,
    /// Diagram quality metrics.
    pub metrics: DiagramMetrics,
    /// The run's full machine-readable report: per-phase timings,
    /// per-net router effort, degradation context.
    pub report: RunReport,
}

impl Row {
    fn from_outcome(label: &'static str, outcome: &netart::Outcome, placed: bool) -> Row {
        Row {
            label,
            modules: outcome.diagram.network().module_count(),
            nets: outcome.diagram.network().net_count(),
            place_time: placed.then_some(outcome.place_time),
            route_time: outcome.route_time,
            routed: outcome.report.routed.len(),
            metrics: outcome.diagram.metrics(),
            report: outcome.run_report(label),
        }
    }
}

/// The rows' run reports as one JSON array — the per-phase timing
/// breakdown the `BENCH_*.json` files carry.
pub fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(rows.iter().map(|r| r.report.to_json()).collect())
}

/// Writes `BENCH_<name>.json` at the repository root (next to the
/// workspace `Cargo.toml`), so bench invocations leave their
/// machine-readable traces in one predictable place. Returns the path
/// written.
///
/// # Errors
///
/// Any filesystem error from the write.
pub fn write_bench_json(name: &str, json: &Json) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json.render_pretty())?;
    Ok(path)
}

/// Figure 6.1: a string of six modules, one partition, one box.
pub fn fig6_1() -> (Row, Diagram) {
    let g = Generator::new().with_placing(PlaceConfig::strings().with_max_box_size(6));
    let outcome = g.generate(string_chain(6));
    (Row::from_outcome("fig 6.1", &outcome, true), outcome.diagram)
}

/// Figure 6.2: the 16-module network with `-p 1 -b 1`.
pub fn fig6_2() -> (Row, Diagram) {
    let outcome = Generator::new().generate(controller_cluster());
    (Row::from_outcome("fig 6.2", &outcome, true), outcome.diagram)
}

/// Figure 6.3: the same network with `-p 5 -b 1`.
pub fn fig6_3() -> (Row, Diagram) {
    let outcome = Generator::new()
        .with_placing(PlaceConfig::clusters())
        .generate(controller_cluster());
    (Row::from_outcome("fig 6.3", &outcome, true), outcome.diagram)
}

/// Figure 6.4: the same network with `-p 7 -b 5`.
pub fn fig6_4() -> (Row, Diagram) {
    let outcome = Generator::new()
        .with_placing(PlaceConfig::strings())
        .generate(controller_cluster());
    (Row::from_outcome("fig 6.4", &outcome, true), outcome.diagram)
}

/// Figure 6.5: the figure 6.2 placement with one module manually moved
/// to the top left, then rerouted (a routing-only run, like the
/// paper's dash in the placement column).
pub fn fig6_5() -> (Row, Diagram) {
    let base = Generator::new().generate(controller_cluster());
    let (network, mut placement, _) = base.diagram.into_parts();
    // "one module has been manually placed from the center to the top
    // left": pick the module nearest the centre.
    let bb = placement.bounding_box(&network).expect("placed");
    let centre = bb.center();
    let victim = network
        .modules()
        .min_by_key(|&m| placement.module_rect(&network, m).center().dist2(centre))
        .expect("non-empty");
    placement.place_module(
        victim,
        Point::new(bb.lower_left().x - 16, bb.upper_right().y + 6),
        Rotation::R0,
    );
    let outcome = Generator::new()
        .route_only(network, placement)
        .expect("placement is complete");
    (Row::from_outcome("fig 6.5", &outcome, false), outcome.diagram)
}

/// Figure 6.6: the LIFE network routed over the designer's hand
/// placement.
pub fn fig6_6() -> (Row, Diagram) {
    let network = life::network();
    let hand = life::hand_placement(&network);
    let outcome = Generator::new()
        .route_only(network, hand)
        .expect("hand placement is complete");
    (Row::from_outcome("fig 6.6", &outcome, false), outcome.diagram)
}

/// The placement configuration used for the automatic LIFE run: the
/// string preset with the Appendix E spacing options providing the
/// routing room the paper calls for.
pub fn life_auto_generator() -> Generator {
    Generator::new()
        .with_placing(
            PlaceConfig::strings()
                .with_module_spacing(2)
                .with_box_spacing(3)
                .with_part_spacing(5),
        )
        .with_routing(RouteConfig::new().with_margin(8))
}

/// Figure 6.7: the LIFE network generated fully automatically.
pub fn fig6_7() -> (Row, Diagram) {
    let outcome = life_auto_generator().generate(life::network());
    (Row::from_outcome("fig 6.7", &outcome, true), outcome.diagram)
}

/// Parses a generated text workload through the governed record path —
/// the same streaming doctor and memory budget the CLI threads — and
/// returns the built network.
///
/// # Panics
///
/// On any doctor rejection or budget exhaustion: generated workloads
/// are clean by construction, so a rejection here is a generator bug,
/// not input noise, and the benches should fail loudly.
pub fn governed_text_network(w: &TextWorkload, budget: &Arc<MemBudget>) -> Network {
    let mut lib = Library::new();
    for (_, qto) in &w.modules {
        let (template, _) =
            doctor::doctor_module_records(records_from_str(qto), InputPolicy::Strict)
                .expect("generated module description is clean");
        lib.add_template(template)
            .expect("generated module names are unique");
    }
    let (network, _) = doctor::doctor_network_records(
        lib,
        records_from_str(&w.net),
        records_from_str(&w.cal),
        (!w.io.is_empty()).then(|| records_from_str(&w.io)),
        InputPolicy::Strict,
        budget,
    )
    .expect("generated workload is clean and under budget");
    network
}

/// The big-N scaling baseline: a 25×40 systolic cell array — 1000
/// modules, an order of magnitude past table 6.1 — ingested under the
/// memory governor and pushed through the default pipeline. Pinning
/// its normalized run report guards the large-N behaviour (routed
/// counts, per-net effort, degradations) the small paper figures
/// cannot see.
pub fn cells_1k() -> (Row, Diagram) {
    let budget = Arc::new(MemBudget::unlimited());
    let network = governed_text_network(&text::cell_array(25, 40), &budget);
    let outcome = Generator::new().generate(network);
    (
        Row::from_outcome("cells 1k", &outcome, true),
        outcome.diagram,
    )
}

/// One gated workload: the `baselines/` file stem and the runner
/// producing its row.
pub type BaselineWorkload = (&'static str, fn() -> (Row, Diagram));

/// The workloads whose normalized run reports are committed under
/// `baselines/` and guarded by the CI perf gate: one per table 6.1
/// row plus the [`cells_1k`] big-N scaling workload, keyed by the
/// file stem the baseline is written to.
pub fn baseline_workloads() -> Vec<BaselineWorkload> {
    vec![
        ("fig6_1", fig6_1 as fn() -> (Row, Diagram)),
        ("fig6_2", fig6_2),
        ("fig6_3", fig6_3),
        ("fig6_4", fig6_4),
        ("fig6_5", fig6_5),
        ("fig6_6", fig6_6),
        ("fig6_7", fig6_7),
        ("cells_1k", cells_1k),
    ]
}

/// The committed baseline text for one row: its run report with
/// wall-clock stripped (see [`RunReport::normalized`]), so
/// regeneration is bit-identical across machines.
pub fn baseline_text(row: &Row) -> String {
    let mut text = row.report.normalized().to_json().render_pretty();
    text.push('\n');
    text
}

/// All seven rows of table 6.1.
pub fn table_6_1() -> Vec<Row> {
    vec![
        fig6_1().0,
        fig6_2().0,
        fig6_3().0,
        fig6_4().0,
        fig6_5().0,
        fig6_6().0,
        fig6_7().0,
    ]
}

/// Formats a duration like the paper's `m:ss` CPU figures, with
/// sub-second precision appended since modern hardware is far below a
/// second on most rows.
pub fn fmt_duration(d: Duration) -> String {
    let total = d.as_secs_f64();
    format!("{:>8.3}s", total)
}

/// Renders the rows as an aligned text table.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "figure   modules  nets   placement   routing     routed  length  bends  crossovers\n",
    );
    for r in rows {
        let place = r
            .place_time
            .map(fmt_duration)
            .unwrap_or_else(|| "       -".to_owned());
        out.push_str(&format!(
            "{:<8} {:>7}  {:>4}  {place}  {}  {:>3}/{:<3}  {:>6}  {:>5}  {:>10}\n",
            r.label,
            r.modules,
            r.nets,
            fmt_duration(r.route_time),
            r.routed,
            r.nets,
            r.metrics.total_length,
            r.metrics.total_bends,
            r.metrics.crossovers,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rows_have_paper_sizes() {
        let (r, d) = fig6_1();
        assert_eq!((r.modules, r.nets), (6, 6));
        assert!(d.check().is_ok());
        let (r, d) = fig6_2();
        assert_eq!((r.modules, r.nets), (16, 24));
        assert!(d.check().is_ok());
        let (r, _) = fig6_5();
        assert!(r.place_time.is_none(), "routing-only row");
    }

    #[test]
    fn table_renders_all_rows() {
        // Only the cheap rows here; the full table runs in the report
        // binary and benches.
        let rows = vec![fig6_1().0, fig6_2().0, fig6_3().0, fig6_4().0, fig6_5().0];
        let table = render_table(&rows);
        assert_eq!(table.lines().count(), 6);
        for label in ["fig 6.1", "fig 6.5"] {
            assert!(table.contains(label), "{table}");
        }
    }
}
