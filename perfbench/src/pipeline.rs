//! One diagram through every layer, the way the CLI runs it: ingest and
//! doctor, place and route, ESCHER emit with its re-parse self-check,
//! SVG, and the run report. Each call into a layer is a span.

use std::sync::Arc;
use std::time::Instant;

use netart::diagram::{escher, svg, Diagram};
use netart::netlist::ingest::records_from_str;
use netart::{Generator, Outcome};
use netart_bench::governed_text_network;
use netart_govern::MemBudget;
use netart_workloads::text::TextWorkload;

use crate::trace::{ns, Tracer};

/// One diagram's input as a user hands it over: Appendix A text, plus
/// an ESCHER placement for the route-only flow.
#[derive(Clone)]
pub struct Job {
    pub text: TextWorkload,
    /// A placed ESCHER diagram: route it instead of placing.
    pub placed: Option<String>,
    pub generator: Generator,
}

impl Job {
    pub fn name(&self) -> &str {
        &self.text.name
    }

    pub fn modules(&self) -> usize {
        self.text
            .cal
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }

    /// The records of the module, net, call and io files.
    pub fn records(&self) -> u64 {
        let t = &self.text;
        let files = t.modules.iter().map(|(_, qto)| qto.as_str());
        files
            .chain([t.net.as_str(), t.cal.as_str(), t.io.as_str()])
            .map(|f| records_from_str(f).len() as u64)
            .sum()
    }
}

/// Deterministic work counts of one diagram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub budget_bytes: u64,
    pub nets: u64,
    pub nodes_expanded: u64,
    pub search_area: u64,
    pub first_pass: u64,
    pub retried: u64,
    pub salvaged: u64,
    pub ripup_victims: u64,
    pub ghost_wires: u64,
    pub over_budget: u64,
    pub escher_bytes: u64,
    pub svg_bytes: u64,
    pub report_bytes: u64,
}

/// What one run of one diagram produced.
pub struct Computed {
    pub wall_ns: u64,
    pub place_ns: u64,
    pub route_ns: u64,
    pub digest: u64,
    pub escher: String,
    /// Its quality metrics are computed after timing stops.
    pub diagram: Diagram,
    pub counts: Counts,
}

/// Runs `job` through the pipeline. `group` ties the spans together.
pub fn run(job: &Job, tr: &mut Tracer, group: u64) -> Result<Computed, String> {
    let start = Instant::now();
    let root = tr.open("diagram", group);

    // The module library, then the network, through the doctor and
    // under a memory budget, as the CLI reads them.
    let s = tr.open("netlist", group);
    let budget = Arc::new(MemBudget::unlimited());
    let network = governed_text_network(&job.text, &budget);
    tr.close(s);
    let name = job.name();

    let outcome: Outcome = match &job.placed {
        Some(placed) => {
            let s = tr.open("emit.reparse", group);
            let diagram = escher::parse_diagram(network, placed)
                .map_err(|e| format!("{name}: placement does not parse: {e}"))?;
            tr.close(s);
            let s = tr.open("core", group);
            let o = job
                .generator
                .route_diagram(diagram)
                .map_err(|e| format!("{name}: {e}"))?;
            tr.close_with_phases(s, &[("route", o.route_time)]);
            o
        }
        None => {
            let s = tr.open("core", group);
            let o = job.generator.generate(network);
            tr.close_with_phases(s, &[("place", o.place_time), ("route", o.route_time)]);
            o
        }
    };

    let s = tr.open("emit.write", group);
    let text = escher::write_diagram(name, &outcome.diagram);
    tr.close(s);
    let s = tr.open("emit.reparse", group);
    escher::parse_diagram(outcome.diagram.network().clone(), &text)
        .map_err(|e| format!("{name}: emitted ESCHER does not re-parse: {e}"))?;
    tr.close(s);
    let s = tr.open("emit.svg", group);
    let picture = svg::render_with_structure(&outcome.diagram);
    tr.close(s);
    let s = tr.open("obs", group);
    let report = outcome.run_report(name).to_json().render();
    tr.close(s);
    tr.close(root);
    let wall_ns = ns(start.elapsed());

    let stats = &outcome.report.net_stats;
    let count = |f: &dyn Fn(&netart::route::NetRouteStats) -> bool| {
        stats.iter().filter(|s| f(s)).count() as u64
    };
    let counts = Counts {
        budget_bytes: budget.used(),
        nets: outcome.diagram.network().net_count() as u64,
        nodes_expanded: stats.iter().map(|s| s.nodes_expanded).sum(),
        search_area: stats
            .iter()
            .filter_map(|s| s.search_bbox)
            .map(|(x0, y0, x1, y1)| (i64::from(x1 - x0) * i64::from(y1 - y0)).unsigned_abs())
            .sum(),
        first_pass: count(&|s| s.routed && !s.retried && s.salvage.is_none()),
        retried: count(&|s| s.retried),
        salvaged: outcome.report.salvaged.len() as u64,
        ripup_victims: stats.iter().map(|s| u64::from(s.ripup_victims)).sum(),
        ghost_wires: outcome.diagram.ghosts().count() as u64,
        over_budget: count(&|s| s.over_budget),
        escher_bytes: text.len() as u64,
        svg_bytes: picture.len() as u64,
        report_bytes: report.len() as u64,
    };
    let digest = fnv1a(fnv1a(FNV_OFFSET, text.as_bytes()), picture.as_bytes());
    Ok(Computed {
        wall_ns,
        place_ns: ns(outcome.place_time),
        route_ns: ns(outcome.route_time),
        digest,
        escher: text,
        diagram: outcome.diagram,
        counts,
    })
}

/// The output checks, run outside every timed region: the diagram
/// passes its own checker, and its ESCHER re-parses into a diagram of
/// identical quality.
pub fn verify(c: &Computed) -> Result<(), String> {
    let check = c.diagram.check();
    if !check.is_ok() {
        return Err(format!("Diagram::check failed: {check}"));
    }
    let back = escher::parse_diagram(c.diagram.network().clone(), &c.escher)
        .map_err(|e| format!("ESCHER does not re-parse: {e}"))?;
    if back.metrics() != c.diagram.metrics() {
        return Err("re-parsed ESCHER differs in quality from the emitted diagram".into());
    }
    Ok(())
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, continued from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
