//! Regenerates (or checks) the committed `baselines/*.json` files the
//! CI perf gate diffs run reports against.
//!
//! Each baseline is the normalized run report of one table 6.1
//! workload: wall-clock timings are zeroed and timing histograms
//! dropped, so the files are bit-identical across machines and only
//! deterministic counters, per-net router effort, degradations, and
//! quality metrics remain. Bless an intentional change by rerunning
//! this binary and committing the result (see `EXPERIMENTS.md`).
//!
//! Usage:
//!
//! ```text
//! baselines [--out-dir DIR] [--check] [--raw]
//! ```
//!
//! `--out-dir` defaults to the workspace `baselines/` directory.
//! `--check` compares instead of writing and exits 1 on any drift or
//! missing file, printing the offending stems. `--raw` writes the
//! *full* run reports (timings intact) instead of normalized
//! baselines — the "current" side the CI perf gate feeds to
//! `netart report diff`.
//!
//! Built `--features alloc-profile`, each report additionally carries
//! per-phase `alloc_count`/`alloc_bytes`/`peak_bytes` (the
//! `EXPERIMENTS.md` memory table). The *committed* baselines are
//! regenerated without the feature, so their alloc members stay null;
//! run `--check` from a default build.

use std::path::PathBuf;
use std::process::ExitCode;

use netart_bench::{baseline_text, baseline_workloads};

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    let mut check = false;
    let mut raw = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out-dir" => match argv.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("baselines: --out-dir needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => check = true,
            "--raw" => raw = true,
            other => {
                eprintln!("baselines: unknown argument `{other}`");
                eprintln!("usage: baselines [--out-dir DIR] [--check] [--raw]");
                return ExitCode::FAILURE;
            }
        }
    }

    if !check {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("baselines: create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
    }

    // With the profiler compiled in, keep the thread-local phase tag
    // in step with the pipeline's spans so allocations attribute to
    // place/route (parse/emit happen outside this harness's runners).
    #[cfg(feature = "alloc-profile")]
    let _ = tracing::set_global_default(netart_obs::PhaseTagSubscriber);

    let mut drifted: Vec<&str> = Vec::new();
    for (stem, run) in baseline_workloads() {
        let alloc_base = netart_obs::AllocSnapshot::capture();
        let (mut row, _) = run();
        netart_obs::attach_alloc_profile(&mut row.report, &alloc_base);
        let text = if raw {
            let mut t = row.report.to_json().render_pretty();
            t.push('\n');
            t
        } else {
            baseline_text(&row)
        };
        let path = out_dir.join(format!("{stem}.json"));
        if check {
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == text => {
                    eprintln!("baselines: {stem} ok");
                }
                Ok(_) => {
                    eprintln!("baselines: {stem} DRIFTED from {}", path.display());
                    drifted.push(stem);
                }
                Err(e) => {
                    eprintln!("baselines: {stem} unreadable at {}: {e}", path.display());
                    drifted.push(stem);
                }
            }
        } else {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("baselines: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("baselines: wrote {}", path.display());
        }
    }

    if drifted.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "baselines: drift in {} — rerun `cargo run --release -p netart-bench --bin baselines` to bless",
            drifted.join(", ")
        );
        ExitCode::FAILURE
    }
}
