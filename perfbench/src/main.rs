//! `perfbench`: the netart benchmark.
//!
//! ```text
//! perfbench --workload paper|cells --seed N --seconds S --trace 0|1
//!           [--netart PATH] [--root DIR] [--out-dir DIR]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced
//! runs (`--trace 1`) record spans around every call into a layer and
//! print the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. A
//! failed output check makes `correct` false and the exit code 1.
//! See `perfbench/README.md`.

mod closed;
mod corpus;
mod pipeline;
mod segments;
mod serve;
mod server;
mod speed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use netart::diagram::DiagramMetrics;
use trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `netart` binary the traced runs' server probe boots.
    pub netart: PathBuf,
    /// The repository checkout (for `baselines/`).
    pub root: PathBuf,
    /// Where spans and server scratch files go.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        netart: PathBuf::from("netart"),
        root: PathBuf::from("."),
        out_dir: PathBuf::from("perfbench-out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            "--netart" => args.netart = value.into(),
            "--root" => args.root = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper", "cells"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper or cells, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// A run's verdict and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// A failed operation or output check.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// A line printed with the results (sample counts, exponents).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The quality metrics summed over the distinct diagrams, and the
    /// share of attempts that passed.
    pub fn quality(&mut self, distinct: &[DiagramMetrics]) {
        let sum = |f: &dyn Fn(&DiagramMetrics) -> u64| distinct.iter().map(f).sum::<u64>() as f64;
        let routed = sum(&|q| q.routed_nets as u64);
        let nets = routed + sum(&|q| q.unrouted_nets as u64);
        self.metric("routed_ratio", routed / nets.max(1.0), "ratio");
        self.metric("wire_length", sum(&|q| q.total_length), "unit");
        self.metric("bends", sum(&|q| q.total_bends), "count");
        self.metric("crossovers", sum(&|q| q.crossovers), "count");
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.metric("ok_ratio", ok / self.attempted.max(1) as f64, "ratio");
    }
}

/// This process's resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or(format!("{path}: no VmHWM"))?;
    Ok(kib / 1024.0)
}

/// The metrics untraced runs print (`end_to_end` in `BENCHMARK.json`).
const END_TO_END: [&str; 8] = [
    "setup_s",
    "peak_rss_mib",
    "ok_ratio",
    "routed_ratio",
    "wire_length",
    "bends",
    "crossovers",
    "pass_s",
];

/// The metrics traced runs print (`per_layer` in `BENCHMARK.json`).
const PER_LAYER: [&str; 34] = [
    "netlist.busy_s",
    "netlist.records",
    "netlist.budget_bytes",
    "place.busy_s",
    "place.exponent",
    "place.bounding_area",
    "route.busy_s",
    "route.nodes_expanded",
    "route.ns_per_node",
    "route.exponent",
    "route.nodes_exponent",
    "route.search_area",
    "route.first_pass_ratio",
    "route.retried_nets",
    "route.salvaged_nets",
    "route.ripup_victims",
    "route.ghost_wires",
    "route.over_budget_nets",
    "core.overhead_s",
    "emit.write_s",
    "emit.reparse_s",
    "emit.svg_s",
    "emit.bytes",
    "check.busy_s",
    "obs.report_s",
    "obs.report_bytes",
    "serve.queue_wait_mean_ms",
    "serve.hit_ratio",
    "serve.coalesced",
    "serve.shed",
    "serve.hit_p50_ms",
    "serve.miss_p50_ms",
    "serve.compute_mean_ms",
    "serve.overhead_mean_ms",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = segments::install() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let mut tr = Tracer::new(args.trace);
    let out = match closed::run(&args, &mut tr) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tr.to_json()));
        if let Err(e) = written {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans in {}", path.display());
    }

    for e in &out.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    for n in &out.notes {
        println!("{n}");
    }
    // Untraced runs print the end-to-end metrics, traced runs the
    // per-layer ones.
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(missing) = names.iter().find(|n| !out.metrics.contains_key(**n)) {
        eprintln!(
            "perfbench: the {} workload measured no {missing}",
            args.workload
        );
        return ExitCode::FAILURE;
    }
    if args.trace {
        let pass = out.metrics["pass_s"].0;
        println!("pass_s with tracing on (untraced runs report pass_s): {pass}");
    }
    let shown: Vec<(&str, (f64, &str))> = names.iter().map(|&n| (n, out.metrics[n])).collect();
    for (name, (value, unit)) in &shown {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = shown
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart::obs::Json;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), PER_LAYER.to_vec());
    }
}
