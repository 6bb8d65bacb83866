//! The closed-loop workloads, `paper` and `cells`: one client renders a
//! corpus one diagram after another, pass after pass, until the run's
//! time is up.

use std::path::Path;
use std::time::{Duration, Instant};

use netart::diagram::DiagramMetrics;
use netart::obs::Json;

use crate::corpus;
use crate::pipeline::{self, fnv1a, Computed, Counts, Job, FNV_OFFSET};
use crate::segments::Floor;
use crate::speed::{Speed, REFERENCE_S};
use crate::stats::{loglog_slope, mean, median};
use crate::trace::{ns, Tracer};
use crate::{peak_rss_mib, Args, Outcome};

/// Set-ups are timed one by one, back to back, for at least this long
/// before the first pass and after every pass.
const SETUP_BATCH: Duration = Duration::from_millis(50);

/// Runs `build` back to back for at least [`SETUP_BATCH`], adding the
/// time of each set-up to `times`, and returns the last set-up's jobs.
fn set_up(
    build: &dyn Fn() -> Result<Vec<Job>, String>,
    times: &mut Vec<f64>,
) -> Result<Vec<Job>, String> {
    let batch = Instant::now();
    loop {
        let t = Instant::now();
        let jobs = build()?;
        times.push(t.elapsed().as_secs_f64());
        if batch.elapsed() >= SETUP_BATCH {
            return Ok(jobs);
        }
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let build = || match args.workload.as_str() {
        "paper" => corpus::paper(),
        _ => corpus::cells(),
    };
    // Set-up: input generation. It is sampled again after every pass,
    // and `setup_s` is the fastest sample, for the reasons `segments` and
    // `speed` give for the pass.
    let mut speed = Speed::new();
    let mut setup_s = Vec::new();
    let jobs = set_up(&build, &mut setup_s)?;

    // Measured passes. Outputs of the first pass are kept for the
    // checks; every later pass must reproduce their digests.
    let mut first: Vec<Computed> = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut diagram_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut floors: Vec<Floor> = jobs.iter().map(|_| Floor::default()).collect();
    let mut layer_ns: Vec<[u64; 2]> = vec![[0; 2]; jobs.len()];
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed() < budget {
        let pass = pass_s.len() as u64;
        let t = Instant::now();
        let mut these = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            out.attempted += 1;
            let group = pass * jobs.len() as u64 + i as u64;
            speed.sample();
            let start = Floor::start();
            let result = pipeline::run(job, tr, group);
            floors[i].finish(start);
            speed.sample();
            match result {
                Ok(c) => {
                    diagram_ms[i].push(c.wall_ns as f64 / 1e6);
                    layer_ns[i][0] += c.place_ns;
                    layer_ns[i][1] += c.route_ns;
                    these.push(Some(c));
                }
                Err(e) => {
                    out.fail(e);
                    these.push(None);
                }
            }
        }
        pass_s.push(t.elapsed().as_secs_f64());
        set_up(&build, &mut setup_s)?;
        digests.push(
            these
                .iter()
                .map(|c| c.as_ref().map_or(0, |c| c.digest))
                .collect(),
        );
        if first.is_empty() {
            first = these.into_iter().flatten().collect();
            if first.len() != jobs.len() {
                break;
            }
        }
    }
    let passes = pass_s.len();
    let fastest_setup = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("setup_s", speed.at_reference(fastest_setup), "s");
    out.note(format!(
        "{} set-ups: fastest {fastest_setup:.6} s, median {:.6} s",
        setup_s.len(),
        median(&setup_s)
    ));
    out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    let quality: Vec<DiagramMetrics> = first.iter().map(|c| c.diagram.metrics()).collect();

    // Output checks, untimed: once per distinct diagram.
    let check_start = Instant::now();
    let mut check_ns = 0u64;
    for (i, c) in first.iter().enumerate() {
        let t = Instant::now();
        let s = tr.open("check", i as u64);
        let verdict = pipeline::verify(c);
        tr.close(s);
        check_ns += ns(t.elapsed());
        if let Err(e) = verdict {
            out.fail(format!("{}: {e}", jobs[i].name()));
        }
        for (p, pass) in digests.iter().enumerate().skip(1) {
            if pass[i] != c.digest {
                out.fail(format!(
                    "{}: pass {p} output differs from pass 0",
                    jobs[i].name()
                ));
            }
        }
    }
    if args.workload == "paper" {
        for (job, q) in jobs.iter().zip(&quality) {
            if let Err(e) = matches_baseline(&args.root, job.name(), q) {
                out.fail(format!("{}: {e}", job.name()));
            }
        }
    }
    // Traced and untraced runs must print the same digest.
    let combined = first
        .iter()
        .fold(FNV_OFFSET, |h, c| fnv1a(h, &c.digest.to_le_bytes()));
    out.note(format!("output digest: {combined:016x}"));
    let times: Vec<String> = pass_s.iter().map(|s| format!("{s:.3}")).collect();
    out.note(format!(
        "{passes} passes of {} s; checks took {:.2} s",
        times.join(" "),
        check_start.elapsed().as_secs_f64()
    ));

    // End-to-end metrics.
    let per_diagram: Vec<String> = jobs
        .iter()
        .zip(&diagram_ms)
        .map(|(j, ms)| format!("{} {:.2}", j.name(), median(ms)))
        .collect();
    out.note(format!("median ms per diagram: {}", per_diagram.join(", ")));
    let floor_s = floors.iter().map(|f| f.ns()).sum::<u64>() as f64 / 1e9;
    out.metric("pass_s", speed.at_reference(floor_s), "s");
    let shapes: Vec<String> = jobs
        .iter()
        .zip(&floors)
        .map(|(j, f)| {
            let (segments, differed, longest, between) = f.shape();
            format!(
                "{} {:.2} ms in {segments} segments (longest {:.2} ms, {between}; {differed} runs differed)",
                j.name(),
                f.ns() as f64 / 1e6,
                longest as f64 / 1e6
            )
        })
        .collect();
    out.note(format!("floor per diagram: {}", shapes.join(", ")));
    out.note(format!(
        "pass: mean {:.4} s, median {:.4} s, floor {floor_s:.4} s; kernel fastest {:.4} ms, {:.3} × the reference",
        mean(&pass_s),
        median(&pass_s),
        speed.fastest() * 1e3,
        speed.fastest() / REFERENCE_S
    ));
    out.quality(&quality);
    let area: u64 = quality.iter().map(|q| q.bounding_area).sum();
    out.metric("place.bounding_area", area as f64, "unit2");

    if tr.is_on() {
        let own = tr.self_seconds();
        let per_pass = |name: &str| own.get(name).copied().unwrap_or(0.0) / passes as f64;
        layer_metrics(&mut out, &jobs, &first, &layer_ns, passes, &per_pass);
        out.metric("check.busy_s", check_ns as f64 / 1e9, "s");
        crate::serve::probe(args, &jobs, tr, &mut out)?;
    }
    Ok(out)
}

/// The per-layer metrics from the passes over `jobs` (with `first` the
/// first pass's outputs) and per-layer self times.
fn layer_metrics(
    out: &mut Outcome,
    jobs: &[Job],
    first: &[Computed],
    layer_ns: &[[u64; 2]],
    passes: usize,
    per_pass: &dyn Fn(&str) -> f64,
) {
    let total = first
        .iter()
        .fold(Counts::default(), |a, c| add(a, c.counts));
    out.metric("netlist.busy_s", per_pass("netlist"), "s");
    let records: u64 = jobs.iter().map(Job::records).sum();
    out.metric("netlist.records", records as f64, "count");
    out.metric("netlist.budget_bytes", total.budget_bytes as f64, "B");
    out.metric("place.busy_s", per_pass("place"), "s");
    let route_s = per_pass("route");
    out.metric("route.busy_s", route_s, "s");
    out.metric("route.nodes_expanded", total.nodes_expanded as f64, "count");
    out.metric(
        "route.ns_per_node",
        route_s * 1e9 / total.nodes_expanded.max(1) as f64,
        "ns",
    );
    out.metric("route.search_area", total.search_area as f64, "unit2");
    out.metric(
        "route.first_pass_ratio",
        total.first_pass as f64 / total.nets.max(1) as f64,
        "ratio",
    );
    out.metric("route.retried_nets", total.retried as f64, "count");
    out.metric("route.salvaged_nets", total.salvaged as f64, "count");
    out.metric("route.ripup_victims", total.ripup_victims as f64, "count");
    out.metric("route.ghost_wires", total.ghost_wires as f64, "count");
    out.metric("route.over_budget_nets", total.over_budget as f64, "count");
    out.metric("core.overhead_s", per_pass("core"), "s");
    out.metric("emit.write_s", per_pass("emit.write"), "s");
    out.metric("emit.reparse_s", per_pass("emit.reparse"), "s");
    out.metric("emit.svg_s", per_pass("emit.svg"), "s");
    out.metric(
        "emit.bytes",
        (total.escher_bytes + total.svg_bytes) as f64,
        "B",
    );
    out.metric("obs.report_s", per_pass("obs"), "s");
    out.metric("obs.report_bytes", total.report_bytes as f64, "B");

    // Growth exponents against module count, over the distinct diagrams
    // (between rungs on `cells`).
    let per = |k: usize| {
        layer_ns
            .iter()
            .map(move |l| l[k] as f64 / passes as f64 / 1e9)
    };
    let modules: Vec<f64> = jobs.iter().map(|j| j.modules() as f64).collect();
    let fit = |ys: &[f64]| {
        let pts: Vec<(f64, f64)> = modules.iter().copied().zip(ys.iter().copied()).collect();
        loglog_slope(&pts)
    };
    let place: Vec<f64> = per(0).collect();
    let route: Vec<f64> = per(1).collect();
    let nodes: Vec<f64> = first
        .iter()
        .map(|c| c.counts.nodes_expanded as f64)
        .collect();
    out.metric("place.exponent", fit(&place), "1");
    out.metric("route.exponent", fit(&route), "1");
    out.metric("route.nodes_exponent", fit(&nodes), "1");
    // Rung to rung, where the corpus is a ladder of growing sizes.
    if !modules.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    for w in 1..jobs.len() {
        let (a, b) = (w - 1, w);
        let e = |y: &[f64]| loglog_slope(&[(modules[a], y[a]), (modules[b], y[b])]);
        out.note(format!(
            "exponent {} -> {} modules: place.busy_s {:.3}, route.busy_s {:.3}, route.nodes_expanded {:.3}",
            modules[a],
            modules[b],
            e(&place),
            e(&route),
            e(&nodes)
        ));
    }
}

fn add(a: Counts, b: Counts) -> Counts {
    Counts {
        budget_bytes: a.budget_bytes + b.budget_bytes,
        nets: a.nets + b.nets,
        nodes_expanded: a.nodes_expanded + b.nodes_expanded,
        search_area: a.search_area + b.search_area,
        first_pass: a.first_pass + b.first_pass,
        retried: a.retried + b.retried,
        salvaged: a.salvaged + b.salvaged,
        ripup_victims: a.ripup_victims + b.ripup_victims,
        ghost_wires: a.ghost_wires + b.ghost_wires,
        over_budget: a.over_budget + b.over_budget,
        escher_bytes: a.escher_bytes + b.escher_bytes,
        svg_bytes: a.svg_bytes + b.svg_bytes,
        report_bytes: a.report_bytes + b.report_bytes,
    }
}

/// Compares a figure's quality with the `quality` block of its
/// committed `baselines/<name>.json`.
fn matches_baseline(root: &Path, name: &str, ours: &DiagramMetrics) -> Result<(), String> {
    let path = root.join("baselines").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let q = doc.get("quality").ok_or("baseline has no quality block")?;
    for (key, value) in [
        ("routed_nets", ours.routed_nets as u64),
        ("unrouted_nets", ours.unrouted_nets as u64),
        ("total_length", ours.total_length),
        ("total_bends", ours.total_bends),
        ("crossovers", ours.crossovers),
        ("branch_points", ours.branch_points),
        ("bounding_area", ours.bounding_area),
    ] {
        let want = q.get(key).and_then(Json::as_u64);
        if want != Some(value) {
            return Err(format!(
                "quality.{key} is {value} but the baseline has {want:?}"
            ));
        }
    }
    Ok(())
}
